package tagger

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
)

func setup() (*kb.KB, *lexicon.Lexicon, *Tagger, *pos.Tagger) {
	base := kb.New()
	base.SetAttr(base.Add(kb.Entity{Name: "San Francisco", Type: "city", Proper: true}), "prominence", 0.9)
	base.Add(kb.Entity{Name: "Palo Alto", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "kitten", Type: "animal"})
	base.Add(kb.Entity{Name: "white shark", Type: "animal"})
	base.SetAttr(base.Add(kb.Entity{Name: "Phoenix", Type: "city", Proper: true}), "prominence", 0.6)
	base.SetAttr(base.Add(kb.Entity{Name: "Phoenix", Type: "celebrity", Proper: true}), "prominence", 0.4)
	base.Add(kb.Entity{Name: "Ontario", Type: "city", Proper: true, Ambiguous: true})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	return base, lex, New(base, lex), pos.New(lex)
}

// splitSentences splits text on fresh buffers.
func splitSentences(text string) []token.Sentence {
	s, _ := token.SplitSentencesInto(nil, nil, text)
	return s
}

func tagText(t *testing.T, text string) ([]Mention, []pos.Tagged) {
	t.Helper()
	base, _, tg, pt := setup()
	_ = base
	sents := splitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("want 1 sentence, got %d", len(sents))
	}
	tagged := pt.TagInto(nil, sents[0])
	return tg.TagInto(nil, new(Scratch), tagged), tagged
}

func TestTagSingleWordEntity(t *testing.T) {
	mentions, _ := tagText(t, "Kittens are cute.")
	if len(mentions) != 1 {
		t.Fatalf("mentions = %v", mentions)
	}
	if mentions[0].Start != 0 || mentions[0].End != 1 {
		t.Fatalf("span = [%d,%d)", mentions[0].Start, mentions[0].End)
	}
}

func TestTagMultiWordEntity(t *testing.T) {
	mentions, tagged := tagText(t, "San Francisco is not a big city.")
	if len(mentions) != 1 {
		t.Fatalf("mentions = %v", mentions)
	}
	m := mentions[0]
	if m.Start != 0 || m.End != 2 || m.Head != 1 {
		t.Fatalf("span = %+v", m)
	}
	if tagged[m.Head].Lower() != "francisco" {
		t.Fatalf("head token = %q", tagged[m.Head].Text)
	}
}

func TestTagLowercaseCommonNoun(t *testing.T) {
	mentions, _ := tagText(t, "I saw a white shark.")
	if len(mentions) != 1 || mentions[0].End-mentions[0].Start != 2 {
		t.Fatalf("mentions = %v", mentions)
	}
}

func TestProperNameRequiresCapital(t *testing.T) {
	// "palo alto" lowercased should not link to the proper-noun entity.
	mentions, _ := tagText(t, "we walked around palo alto yesterday.")
	if len(mentions) != 0 {
		t.Fatalf("lowercase proper name linked: %v", mentions)
	}
}

func TestCrossTypeDisambiguationByContext(t *testing.T) {
	// "Phoenix" is both a city and a celebrity; type context decides.
	base, _, tg, pt := setup()
	cityIDs := base.OfType("city")
	celebIDs := base.OfType("celebrity")
	var cityPhoenix, celebPhoenix kb.EntityID = -1, -1
	for _, id := range cityIDs {
		if base.Get(id).Name == "Phoenix" {
			cityPhoenix = id
		}
	}
	for _, id := range celebIDs {
		if base.Get(id).Name == "Phoenix" {
			celebPhoenix = id
		}
	}

	sent := pt.TagInto(nil, splitSentences("Phoenix is a big city.")[0])
	mentions := tg.TagInto(nil, new(Scratch), sent)
	if len(mentions) != 1 || mentions[0].Entity != cityPhoenix {
		t.Fatalf("city context: %v (want city id %d)", mentions, cityPhoenix)
	}

	sent = pt.TagInto(nil, splitSentences("Phoenix is a cool celebrity.")[0])
	mentions = tg.TagInto(nil, new(Scratch), sent)
	if len(mentions) != 1 || mentions[0].Entity != celebPhoenix {
		t.Fatalf("celebrity context: %v (want celeb id %d)", mentions, celebPhoenix)
	}
}

func TestNoContextPrefersProminence(t *testing.T) {
	// Without type context, the more prominent sense (city, 0.6) wins.
	base, _, tg, pt := setup()
	sent := pt.TagInto(nil, splitSentences("Phoenix is big.")[0])
	mentions := tg.TagInto(nil, new(Scratch), sent)
	if len(mentions) != 1 {
		t.Fatalf("mentions = %v", mentions)
	}
	if base.Get(mentions[0].Entity).Type != "city" {
		t.Fatalf("linked to %q, want city", base.Get(mentions[0].Entity).Type)
	}
}

func TestAmbiguousEntityNeedsTypeContext(t *testing.T) {
	mentions, _ := tagText(t, "Ontario is big.")
	if len(mentions) != 0 {
		t.Fatalf("ambiguous name linked without context: %v", mentions)
	}
	mentions, _ = tagText(t, "Ontario is a big city.")
	if len(mentions) != 1 {
		t.Fatalf("ambiguous name with context not linked: %v", mentions)
	}
}

func TestGreedyLongestMatch(t *testing.T) {
	// "San Francisco" must be one mention, not "San" + "Francisco".
	base := kb.New()
	base.Add(kb.Entity{Name: "San Francisco", Type: "city", Proper: true})
	base.Add(kb.Entity{Name: "Francisco", Type: "celebrity", Proper: true})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	tg := New(base, lex)
	pt := pos.New(lex)
	sent := pt.TagInto(nil, splitSentences("San Francisco is big.")[0])
	mentions := tg.TagInto(nil, new(Scratch), sent)
	if len(mentions) != 1 || mentions[0].End-mentions[0].Start != 2 {
		t.Fatalf("mentions = %v", mentions)
	}
	if base.Get(mentions[0].Entity).Name != "San Francisco" {
		t.Fatalf("linked %q", base.Get(mentions[0].Entity).Name)
	}
}

func TestMentionsDoNotOverlap(t *testing.T) {
	mentions, _ := tagText(t, "Kittens and white sharks live near San Francisco.")
	prevEnd := -1
	for _, m := range mentions {
		if m.Start < prevEnd {
			t.Fatalf("overlapping mentions: %v", mentions)
		}
		prevEnd = m.End
	}
	if len(mentions) != 3 {
		t.Fatalf("want 3 mentions, got %v", mentions)
	}
}

func TestCovers(t *testing.T) {
	m := Mention{Start: 2, End: 4}
	if !m.Covers(2) || !m.Covers(3) || m.Covers(4) || m.Covers(1) {
		t.Fatal("Covers boundary check failed")
	}
}

func TestPluralMentionLinks(t *testing.T) {
	mentions, _ := tagText(t, "Kittens are cute animals.")
	if len(mentions) != 1 {
		t.Fatalf("plural mention not linked: %v", mentions)
	}
}

func TestTaggerSkipsVerbsInSpan(t *testing.T) {
	// An entity name containing a verb-tagged word must not match across
	// the verb ("San" + copula is implausible as a span).
	base := kb.New()
	base.Add(kb.Entity{Name: "Big Sur", Type: "city", Proper: true})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	tg := New(base, lex)
	pt := pos.New(lex)
	sent := pt.TagInto(nil, splitSentences("Big Sur is big.")[0])
	mentions := tg.TagInto(nil, new(Scratch), sent)
	if len(mentions) != 1 || mentions[0].End-mentions[0].Start != 2 {
		t.Fatalf("mentions = %v", mentions)
	}
}

func TestTaggerSentenceInitialCommonNoun(t *testing.T) {
	// A capitalised common-noun entity at sentence start must still link.
	base := kb.New()
	base.Add(kb.Entity{Name: "chess", Type: "sport"})
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	tg := New(base, lex)
	pt := pos.New(lex)
	sent := pt.TagInto(nil, splitSentences("Chess is a calm sport.")[0])
	if got := tg.TagInto(nil, new(Scratch), sent); len(got) != 1 {
		t.Fatalf("mentions = %v", got)
	}
}

func TestTaggerNoMentionsInEmptySentence(t *testing.T) {
	_, _, tg, _ := setup()
	if got := tg.TagInto(nil, new(Scratch), nil); len(got) != 0 {
		t.Fatalf("mentions on nil input: %v", got)
	}
}

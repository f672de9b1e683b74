package pos

import (
	"testing"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/token"
)

// splitSentences splits text on fresh buffers.
func splitSentences(text string) []token.Sentence {
	s, _ := token.SplitSentencesInto(nil, nil, text)
	return s
}

func tagSentence(t *testing.T, text string) []Tagged {
	t.Helper()
	sents := splitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("expected one sentence for %q, got %d", text, len(sents))
	}
	return New(lexicon.Default()).TagInto(nil, sents[0])
}

func wantTags(t *testing.T, text string, want ...lexicon.Tag) {
	t.Helper()
	tagged := tagSentence(t, text)
	if len(tagged) != len(want) {
		t.Fatalf("%q: got %d tokens, want %d", text, len(tagged), len(want))
	}
	for i, tg := range tagged {
		if tg.Tag != want[i] {
			t.Errorf("%q token %d (%q): got %v, want %v", text, i, tg.Text, tg.Tag, want[i])
		}
	}
}

func TestTagCopularSentence(t *testing.T) {
	wantTags(t, "Chicago is very big.",
		lexicon.Propn, lexicon.Verb, lexicon.Adv, lexicon.Adj, lexicon.Punct)
}

func TestTagNegation(t *testing.T) {
	wantTags(t, "Paris is not big.",
		lexicon.Propn, lexicon.Verb, lexicon.Neg, lexicon.Adj, lexicon.Punct)
}

func TestTagContraction(t *testing.T) {
	tagged := tagSentence(t, "I don't think that snakes are never dangerous.")
	byText := map[string]lexicon.Tag{}
	for _, tg := range tagged {
		byText[tg.Lower()] = tg.Tag
	}
	if byText["do"] != lexicon.Aux {
		t.Errorf("do tagged %v, want Aux", byText["do"])
	}
	if byText["n't"] != lexicon.Neg {
		t.Errorf("n't tagged %v, want Neg", byText["n't"])
	}
	if byText["think"] != lexicon.Verb {
		t.Errorf("think tagged %v, want Verb", byText["think"])
	}
	if byText["never"] != lexicon.Neg {
		t.Errorf("never tagged %v, want Neg", byText["never"])
	}
	if byText["dangerous"] != lexicon.Adj {
		t.Errorf("dangerous tagged %v, want Adj", byText["dangerous"])
	}
	if byText["that"] != lexicon.Mark {
		t.Errorf("that tagged %v, want Mark", byText["that"])
	}
}

func TestThatAsDeterminer(t *testing.T) {
	tagged := tagSentence(t, "That city is big.")
	if tagged[0].Tag != lexicon.Det {
		t.Errorf("sentence-initial 'That' before noun: got %v, want Det", tagged[0].Tag)
	}
}

func TestPrettyAmbiguity(t *testing.T) {
	// "pretty big" -> Adv Adj; "is pretty" -> Adj.
	tagged := tagSentence(t, "Rome is pretty big.")
	if tagged[2].Tag != lexicon.Adv {
		t.Errorf("'pretty' before adjective: got %v, want Adv", tagged[2].Tag)
	}
	tagged = tagSentence(t, "Rome is pretty.")
	if tagged[2].Tag != lexicon.Adj {
		t.Errorf("predicate 'pretty': got %v, want Adj", tagged[2].Tag)
	}
}

func TestUnknownCapitalisedIsProperNoun(t *testing.T) {
	tagged := tagSentence(t, "Qozmigrad is big.")
	if tagged[0].Tag != lexicon.Propn {
		t.Errorf("unknown capitalised word: got %v, want Propn", tagged[0].Tag)
	}
}

func TestUnknownSuffixHeuristics(t *testing.T) {
	cases := []struct {
		word string
		want lexicon.Tag
	}{
		{"blorply", lexicon.Adv},
		{"blorpous", lexicon.Adj},
		{"blorpful", lexicon.Adj},
		{"blorpable", lexicon.Adj},
		{"blorp", lexicon.Noun},
	}
	for _, c := range cases {
		tagged := tagSentence(t, "it seems "+c.word+" indeed")
		if tagged[2].Tag != c.want {
			t.Errorf("%q: got %v, want %v", c.word, tagged[2].Tag, c.want)
		}
	}
}

func TestParticipleAfterCopulaIsAdjective(t *testing.T) {
	tagged := tagSentence(t, "Tokyo is crowded.")
	if tagged[2].Tag != lexicon.Adj {
		t.Errorf("'crowded' after copula: got %v, want Adj", tagged[2].Tag)
	}
}

func TestNumberTag(t *testing.T) {
	tagged := tagSentence(t, "It has 42 parks.")
	if tagged[2].Tag != lexicon.Num {
		t.Errorf("42: got %v, want Num", tagged[2].Tag)
	}
}

func TestVerbNounAmbiguity(t *testing.T) {
	tagged := tagSentence(t, "We visit Rome.")
	if tagged[1].Tag != lexicon.Verb {
		t.Errorf("'visit' after pronoun: got %v, want Verb", tagged[1].Tag)
	}
	tagged = tagSentence(t, "The visit was great.")
	if tagged[1].Tag != lexicon.Noun {
		t.Errorf("'visit' after determiner: got %v, want Noun", tagged[1].Tag)
	}
}

func TestAuxVersusMainVerb(t *testing.T) {
	tagged := tagSentence(t, "They do n't like it.")
	if tagged[1].Tag != lexicon.Aux {
		t.Errorf("'do' before negation: got %v, want Aux", tagged[1].Tag)
	}
}

package extract

import (
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/tagger"
)

// FuzzExtract runs the full text path (tokenize, tag, mention-tag, parse,
// extract) for every Appendix-B pattern version on arbitrary text and
// checks the structural invariants of the emitted statements: known
// entity, non-empty lower-case property ending in an adjective present in
// the sentence, polarity in {-1,+1}, a valid pattern tag, and no
// duplicate (entity, property, polarity) claims within one sentence.
func FuzzExtract(f *testing.F) {
	f.Add("Kittens are very cute animals.")
	f.Add("I don't think that snakes are never dangerous.")
	f.Add("San Francisco, a beautiful city, is big and expensive.")
	f.Add("Rome is bad for parking but spiders seem scary.")
	f.Add("the cute cat sat, kittens are not cute")
	f.Add("spiders and kittens are cute, scary and small")

	lex := lexicon.Default()
	base := kb.New()
	known := map[kb.EntityID]bool{}
	for _, e := range []kb.Entity{
		{Name: "kitten", Type: "animal", Aliases: []string{"kittens"}},
		{Name: "snake", Type: "animal", Aliases: []string{"snakes"}},
		{Name: "spider", Type: "animal", Aliases: []string{"spiders"}},
		{Name: "San Francisco", Type: "city", Proper: true},
		{Name: "Rome", Type: "city", Proper: true},
	} {
		known[base.Add(e)] = true
	}
	base.RegisterLexicon(lex)

	tg := pos.New(lex)
	mt := tagger.New(base, lex)
	parser := depparse.New(lex)
	extractors := []*Extractor{
		NewVersion(lex, V1), NewVersion(lex, V2),
		NewVersion(lex, V3), NewVersion(lex, V4),
	}

	f.Fuzz(func(t *testing.T, text string) {
		for _, sent := range splitSentences(text) {
			tagged := tg.TagInto(nil, sent)
			mentions := mt.TagInto(nil, new(tagger.Scratch), tagged)
			tree := parser.ParseInto(new(depparse.Scratch), tagged)
			adjs := map[string]bool{}
			for _, n := range tree.Nodes {
				if n.Tag == lexicon.Adj {
					adjs[n.Lower()] = true
				}
			}
			for _, x := range extractors {
				seen := map[Statement]bool{}
				for _, st := range x.ExtractInto(nil, tree, mentions) {
					if !known[st.Entity] {
						t.Fatalf("statement about unknown entity %d (%q)", st.Entity, sent.Text())
					}
					if st.Property == "" || st.Property != strings.ToLower(st.Property) {
						t.Fatalf("property %q not normalised (%q)", st.Property, sent.Text())
					}
					words := strings.Fields(st.Property)
					if !adjs[words[len(words)-1]] {
						t.Fatalf("property %q does not end in an adjective of the sentence (%q)",
							st.Property, sent.Text())
					}
					for _, w := range words[:len(words)-1] {
						if !degreeAdverbs[w] {
							t.Fatalf("property %q contains non-degree modifier %q", st.Property, w)
						}
					}
					if st.Polarity != Positive && st.Polarity != Negative {
						t.Fatalf("polarity %d out of range (%q)", st.Polarity, sent.Text())
					}
					if st.Pattern.String() == "unknown" {
						t.Fatalf("unknown pattern %d (%q)", st.Pattern, sent.Text())
					}
					k := st
					k.Pattern = 0 // dedup ignores the producing pattern
					if seen[k] {
						t.Fatalf("duplicate claim %+v in one sentence (%q)", st, sent.Text())
					}
					seen[k] = true
				}
			}
		}
	})
}

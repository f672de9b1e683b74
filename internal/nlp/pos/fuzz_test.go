package pos

import (
	"testing"

	"repro/internal/nlp/lexicon"
)

// FuzzTag checks the tagger's structural invariants on arbitrary text:
// exactly one tag per token, every tag drawn from the coarse inventory,
// and the underlying tokens passed through unchanged.
func FuzzTag(f *testing.F) {
	f.Add("Kittens are very cute animals.")
	f.Add("I don't think that snakes are never dangerous.")
	f.Add("The 12 big cities of 2015?!")
	f.Add("x")
	f.Add("\x00\xff\t 'n't")
	lex := lexicon.Default()
	tagger := New(lex)
	f.Fuzz(func(t *testing.T, text string) {
		for _, sent := range splitSentences(text) {
			tagged := tagger.TagInto(nil, sent)
			if len(tagged) != len(sent.Tokens) {
				t.Fatalf("tagged %d tokens, sentence has %d", len(tagged), len(sent.Tokens))
			}
			for i, tg := range tagged {
				if tg.Tag < lexicon.Other || tg.Tag > lexicon.Mark {
					t.Fatalf("token %d %q: tag %d outside the inventory", i, tg.Text, tg.Tag)
				}
				if tg.Token != sent.Tokens[i] {
					t.Fatalf("token %d mutated by tagging: %+v vs %+v", i, tg.Token, sent.Tokens[i])
				}
			}
		}
	})
}

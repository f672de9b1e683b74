package token

import (
	"reflect"
	"testing"
)

var intoSamples = []string{
	"",
	"Kittens are cute.",
	"San Francisco is big! Dr. Smith doesn't agree. Really?",
	"A well-known city. J. Smith visited the U.S. in 2020.",
	"can't won't it's we're I'm they'd you'll",
}

// TestTokenizeIntoMatchesTokenize checks the buffer-reuse contract: with a
// prefilled destination the appended suffix must equal the tokens of a
// fresh buffer, and the prefix must be untouched.
func TestTokenizeIntoMatchesTokenize(t *testing.T) {
	prefix := tokenize("existing prefix tokens")
	for _, text := range intoSamples {
		want := tokenize(text)
		dst := append([]Token(nil), prefix...)
		got := TokenizeInto(dst, text)
		if !reflect.DeepEqual(got[:len(prefix)], prefix) {
			t.Fatalf("%q: prefix was modified", text)
		}
		if len(want) == 0 && len(got) == len(prefix) {
			continue
		}
		if !reflect.DeepEqual(got[len(prefix):], want) {
			t.Fatalf("%q: appended tokens diverge\ngot  %+v\nwant %+v", text, got[len(prefix):], want)
		}
	}
}

// TestSplitSentencesIntoMatchesSplit reuses one buffer pair across all
// samples — as a pipeline worker does — and checks each result against
// fresh buffers.
func TestSplitSentencesIntoMatchesSplit(t *testing.T) {
	var sents []Sentence
	var toks []Token
	for round := 0; round < 3; round++ { // reuse across rounds grows caps
		for _, text := range intoSamples {
			want := splitSentences(text)
			sents, toks = SplitSentencesInto(sents[:0], toks[:0], text)
			if len(sents) != len(want) {
				t.Fatalf("%q: %d sentences, want %d", text, len(sents), len(want))
			}
			for i := range want {
				if sents[i].Start != want[i].Start || sents[i].End != want[i].End {
					t.Fatalf("%q sentence %d: span [%d,%d), want [%d,%d)", text, i,
						sents[i].Start, sents[i].End, want[i].Start, want[i].End)
				}
				if !reflect.DeepEqual(sents[i].Tokens, want[i].Tokens) {
					t.Fatalf("%q sentence %d: tokens diverge", text, i)
				}
			}
		}
	}
}

// TestLowerCachedAtTokenizeTime pins the satellite fix: tokens coming out
// of the tokenizer carry their lowercase form, and hand-built tokens still
// answer Lower correctly through the fallback.
func TestLowerCachedAtTokenizeTime(t *testing.T) {
	for _, tok := range tokenize("San Francisco DOESN'T sleep") {
		if tok.lower == "" {
			t.Fatalf("token %q has no cached lower form", tok.Text)
		}
		if tok.Lower() != tok.lower {
			t.Fatalf("token %q: Lower()=%q, cache=%q", tok.Text, tok.Lower(), tok.lower)
		}
	}
	hand := Token{Text: "ABC", Start: 0, End: 3}
	if hand.Lower() != "abc" {
		t.Fatalf("fallback Lower = %q", hand.Lower())
	}
	if got := New("ABC", 0, 3); got.lower != "abc" {
		t.Fatalf("New did not fill the cache: %+v", got)
	}
}

// TestSplitSentencesIntoAllocations pins the single-scan discipline: with
// warm buffers, lower-case text (digits, hyphens, inner periods and
// punctuation included) is split without allocating — every token's text
// and lower-cased form alias the source — and each word with an upper-case
// letter costs exactly its one strings.ToLower.
func TestSplitSentencesIntoAllocations(t *testing.T) {
	var sents []Sentence
	var toks []Token
	for _, c := range []struct {
		text string
		want float64
	}{
		{"the well-known city is pretty big, e.g. in 2020; kittens are cute! really? yes.", 0},
		{"it is cute (or so they say) - 3.5 of 10 agree: \"fine\".", 0},
		{"San Francisco is a big city. Mr. J. Smith visited NASA.", 6},
		{"it's they're kittens' i'd", 0},
	} {
		sents, toks = SplitSentencesInto(sents[:0], toks[:0], c.text) // grow the buffers
		got := testing.AllocsPerRun(100, func() {
			sents, toks = SplitSentencesInto(sents[:0], toks[:0], c.text)
		})
		if got != c.want {
			t.Errorf("%q: %v allocations per run, want %v", c.text, got, c.want)
		}
	}
}

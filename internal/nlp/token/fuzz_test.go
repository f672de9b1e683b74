package token

import "testing"

// FuzzSplitSentences checks the structural invariants of the tokenizer and
// sentence splitter on arbitrary input: byte offsets stay inside the
// source, token spans are ordered and non-overlapping, and sentence
// bounds agree with their tokens. Token.Text may legitimately differ from
// the source slice (contraction normalisation: "won't" -> "will" + "n't").
func FuzzSplitSentences(f *testing.F) {
	f.Add("I don't think that San Francisco is a big city, but it is beautiful.")
	f.Add("Mr. Smith won't visit St. Louis. Really?")
	f.Add("well-known U.S. cities... e.g. NYC!")
	f.Add("Kittens are cute. Spiders aren't.")
	f.Add("")
	f.Add("...")
	f.Add("a\x00b\xffc")
	f.Add("can't shan't won't o'clock 'tis")
	f.Fuzz(func(t *testing.T, text string) {
		toks := tokenize(text)
		prevEnd := 0
		for i, tok := range toks {
			if tok.Text == "" {
				t.Fatalf("token %d is empty", i)
			}
			if tok.Start < prevEnd || tok.Start >= tok.End || tok.End > len(text) {
				t.Fatalf("token %d span [%d,%d) out of order or out of bounds (prev end %d, len %d)",
					i, tok.Start, tok.End, prevEnd, len(text))
			}
			prevEnd = tok.End
		}

		sents := splitSentences(text)
		total := 0
		for si, s := range sents {
			if len(s.Tokens) == 0 {
				t.Fatalf("sentence %d has no tokens", si)
			}
			if s.Start != s.Tokens[0].Start || s.End != s.Tokens[len(s.Tokens)-1].End {
				t.Fatalf("sentence %d bounds [%d,%d) disagree with its tokens", si, s.Start, s.End)
			}
			for ti, tok := range s.Tokens {
				if tok != toks[total+ti] {
					t.Fatalf("sentence %d token %d differs from TokenizeInto output", si, ti)
				}
			}
			total += len(s.Tokens)
		}
		if total != len(toks) {
			t.Fatalf("sentences cover %d tokens, TokenizeInto produced %d", total, len(toks))
		}
	})
}

// FuzzTokenizeMatchesReference holds the single-scan tokenizer to the
// tokenizer it replaced (reference_test.go): identical tokens — text,
// offsets and lower-cased form — on arbitrary bytes.
func FuzzTokenizeMatchesReference(f *testing.F) {
	f.Add("can't won't shan't o'clock 'tis U.S. e.g. Mr. J. Smith well-known it's they're I'd")
	f.Add("CAN'T WON'T DON'T N'T X'S I'M WE'VE She'Ll NASA")
	f.Add("a\x00b\xffc \x80abc d\xc3 na\xc3\xafve \xe5\x8c\x97\xe4\xba\xac")
	f.Add("' - . '' -- 'a a' -a a- .a a. rock-'n'-roll a--b a''b a.-b n't 's")
	f.Add("In 1999 there were 42 kittens, 3.14 sharks and 1,000 dogs.")
	f.Fuzz(func(t *testing.T, text string) {
		got, want := TokenizeInto(nil, text), referenceTokenizeInto(nil, text)
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, reference has %d", text, len(got), len(want))
		}
		for i := range want {
			if got[i].Text != want[i].Text || got[i].Start != want[i].Start || got[i].End != want[i].End ||
				got[i].Lower() != want[i].Lower() {
				t.Fatalf("%q token %d: {%q %d %d %q}, reference {%q %d %d %q}", text, i,
					got[i].Text, got[i].Start, got[i].End, got[i].Lower(),
					want[i].Text, want[i].Start, want[i].End, want[i].Lower())
			}
		}
	})
}

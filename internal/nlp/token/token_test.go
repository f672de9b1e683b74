package token

import (
	"strings"
	"testing"
	"testing/quick"
)

// tokenize and splitSentences run the one entry point on fresh buffers.
func tokenize(text string) []Token { return TokenizeInto(nil, text) }

func splitSentences(text string) []Sentence { s, _ := SplitSentencesInto(nil, nil, text); return s }

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	got := texts(tokenize("Chicago is very big."))
	want := []string{"Chicago", "is", "very", "big", "."}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeNegativeContraction(t *testing.T) {
	got := texts(tokenize("I don't think so"))
	want := []string{"I", "do", "n't", "think", "so"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeCant(t *testing.T) {
	got := texts(tokenize("can't won't isn't"))
	want := []string{"can", "n't", "will", "n't", "is", "n't"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizePossessiveClitic(t *testing.T) {
	got := texts(tokenize("Chicago's winters"))
	want := []string{"Chicago", "'s", "winters"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeHyphen(t *testing.T) {
	got := texts(tokenize("a well-known city"))
	want := []string{"a", "well-known", "city"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizePunctuation(t *testing.T) {
	got := texts(tokenize("big, but not safe!"))
	want := []string{"big", ",", "but", "not", "safe", "!"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	src := "San Francisco is big."
	for _, tok := range tokenize(src) {
		if src[tok.Start:tok.End] != tok.Text {
			t.Fatalf("offset mismatch: %q vs %q", src[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeContractionOffsetsCoverSource(t *testing.T) {
	src := "don't"
	toks := tokenize(src)
	if len(toks) != 2 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[0].Start != 0 || toks[1].End != len(src) {
		t.Fatalf("offsets %v do not span source", toks)
	}
	if toks[0].End != toks[1].Start {
		t.Fatal("contraction tokens should be adjacent")
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := tokenize(""); len(got) != 0 {
		t.Fatalf("tokens of empty text = %v", got)
	}
	if got := tokenize("   \n\t "); len(got) != 0 {
		t.Fatalf("tokens of whitespace = %v", got)
	}
}

func TestSplitSentencesBasic(t *testing.T) {
	sents := splitSentences("Kittens are cute. Spiders are not cute! Really?")
	if len(sents) != 3 {
		t.Fatalf("got %d sentences, want 3", len(sents))
	}
	if sents[0].Tokens[0].Text != "Kittens" || sents[1].Tokens[0].Text != "Spiders" {
		t.Fatalf("sentence boundaries wrong: %v", sents)
	}
}

func TestSplitSentencesAbbreviation(t *testing.T) {
	const text = "Dr. Smith lives in St. Louis. He likes it."
	sents := splitSentences(text)
	if len(sents) != 2 {
		for _, s := range sents {
			t.Logf("sentence: %s", text[s.Start:s.End])
		}
		t.Fatalf("got %d sentences, want 2", len(sents))
	}
}

func TestSplitSentencesInitial(t *testing.T) {
	sents := splitSentences("J. Smith visited Rome. It was great.")
	if len(sents) != 2 {
		t.Fatalf("got %d sentences, want 2", len(sents))
	}
}

func TestSplitSentencesNoTrailingPeriod(t *testing.T) {
	sents := splitSentences("kittens are cute")
	if len(sents) != 1 || len(sents[0].Tokens) != 3 {
		t.Fatalf("got %v", sents)
	}
}

// TestSentenceText: a sentence's byte span is its text in the source.
func TestSentenceText(t *testing.T) {
	const text = "Rome is big. Paris is not."
	sents := splitSentences(text)
	if len(sents) != 2 || text[sents[0].Start:sents[0].End] != "Rome is big." ||
		text[sents[1].Start:sents[1].End] != "Paris is not." {
		t.Fatalf("sentence spans %+v", sents)
	}
}

func TestTokenLower(t *testing.T) {
	tok := Token{Text: "BiG"}
	if tok.Lower() != "big" {
		t.Fatal("Lower failed")
	}
}

// Property: every token's offsets index the source exactly, tokens are
// non-overlapping and in order.
func TestTokenizeOffsetInvariant(t *testing.T) {
	f := func(s string) bool {
		// Restrict to printable ASCII to keep the property meaningful.
		clean := make([]byte, 0, len(s))
		for i := 0; i < len(s); i++ {
			if s[i] >= 32 && s[i] < 127 {
				clean = append(clean, s[i])
			}
		}
		src := string(clean)
		prevEnd := 0
		for _, tok := range tokenize(src) {
			if tok.Start < prevEnd || tok.End <= tok.Start || tok.End > len(src) {
				return false
			}
			// Non-contraction tokens must match their span verbatim.
			if tok.Text != "n't" && tok.Text != "will" && src[tok.Start:tok.End] != tok.Text {
				// Contraction stems may rewrite ("wo" -> "will", "ca" -> "can").
				if !(tok.Text == "can" && src[tok.Start:tok.End] == "ca") &&
					!(strings.EqualFold(tok.Text, "can") && strings.EqualFold(src[tok.Start:tok.End], "ca")) {
					return false
				}
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: sentence splitting partitions the token stream.
func TestSplitSentencesPartitionProperty(t *testing.T) {
	f := func(s string) bool {
		clean := make([]byte, 0, len(s))
		for i := 0; i < len(s); i++ {
			if s[i] >= 32 && s[i] < 127 {
				clean = append(clean, s[i])
			}
		}
		src := string(clean)
		total := len(tokenize(src))
		sum := 0
		for _, sent := range splitSentences(src) {
			if len(sent.Tokens) == 0 {
				return false
			}
			sum += len(sent.Tokens)
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Package token implements the tokenizer and sentence splitter of the
// Surveyor NLP substrate. Offsets into the original text are preserved so
// entity mentions can be mapped back to their source.
package token

import (
	"strings"
	"unicode"
)

// Token is a single token with its position in the source text.
type Token struct {
	Text  string // surface form as it appeared (contractions split: "n't")
	Start int    // byte offset of the first byte in the source
	End   int    // byte offset one past the last byte

	// lower caches the lower-cased surface form. The tokenizer fills it so
	// the POS/lexicon hot loops never re-run strings.ToLower; tokens built
	// by hand (tests) may leave it empty and Lower falls back.
	lower string
}

// New builds a token with its lowercase cache filled, identical to
// tokenizer output.
func New(text string, start, end int) Token {
	return Token{Text: text, Start: start, End: end, lower: strings.ToLower(text)}
}

// Lower returns the lower-cased surface form.
func (t Token) Lower() string {
	if t.lower != "" {
		return t.lower
	}
	return strings.ToLower(t.Text)
}

// Sentence is a contiguous span of tokens.
type Sentence struct {
	Tokens []Token
	Start  int // byte offset of the sentence in the source
	End    int
}

// Common abbreviations that do not end a sentence.
var abbreviations = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "prof": true,
	"st": true, "mt": true, "vs": true, "etc": true, "inc": true,
	"jr": true, "sr": true, "e.g": true, "i.e": true, "approx": true,
	"no": true, "vol": true, "fig": true,
}

// TokenizeInto appends the tokens of text to dst and returns the extended
// slice, so a loop over many texts can reuse one buffer. Rules:
//   - runs of letters/digits form words;
//   - negative contractions are split into stem + "n't" ("don't" -> "do",
//     "n't"); other apostrophe clitics ("'s", "'re") are split off;
//   - each punctuation rune is its own token;
//   - hyphenated words stay together ("well-known").
//
// The scan that finds a word's end also notes whether the word has an
// upper-case letter or an apostrophe, so a word is looked at once: without
// an upper-case letter it is its own lower-cased form (no strings.ToLower,
// no allocation), and without an apostrophe it cannot be a contraction.
// A byte ≥ 0x80 is one token whose Lower() is whatever strings.ToLower
// makes of that lone byte (U+FFFD): multi-byte UTF-8 letters come out as
// one token per byte. That is pinned by TestNLPLeavesGolden and
// FuzzTokenizeMatchesReference, not fixed here.
func TokenizeInto(dst []Token, text string) []Token {
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isWordByte(c):
			upper, apostrophe := false, false
			j := i
			for ; j < n; j++ {
				b := text[j]
				if b >= 'A' && b <= 'Z' {
					upper = true
				} else if !isWordByte(b) {
					if !isInnerByte(text, j) {
						break
					}
					apostrophe = apostrophe || b == '\''
				}
			}
			word := text[i:j]
			lower := word
			if upper {
				lower = strings.ToLower(word)
			}
			if apostrophe {
				dst = appendCliticTokens(dst, word, lower, i)
			} else {
				dst = append(dst, Token{Text: word, Start: i, End: j, lower: lower})
			}
			i = j
		case c < 0x80:
			// ASCII punctuation and control bytes are their own lower case.
			p := text[i : i+1]
			dst = append(dst, Token{Text: p, Start: i, End: i + 1, lower: p})
			i++
		default:
			dst = append(dst, New(text[i:i+1], i, i+1))
			i++
		}
	}
	return dst
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// isInnerByte allows apostrophes, hyphens, and periods inside a word when
// flanked by word bytes ("don't", "well-known", "U.S").
func isInnerByte(text string, j int) bool {
	b := text[j]
	if b != '\'' && b != '-' && b != '.' {
		return false
	}
	return j > 0 && isWordByte(text[j-1]) && j+1 < len(text) && isWordByte(text[j+1])
}

// appendCliticTokens appends a word that contains an apostrophe to dst,
// breaking a negative contraction or an apostrophe clitic off while keeping
// byte offsets consistent with the source. lower is the word lower-cased.
func appendCliticTokens(dst []Token, word, lower string, start int) []Token {
	// Trailing sentence-internal period stays ("U.S." keeps its inner dots
	// by isInnerByte; a trailing one never reaches here).
	if idx := strings.LastIndex(lower, "n't"); idx > 0 && idx == len(lower)-3 {
		stem := word[:idx]
		if lower[:idx] == "ca" { // can't -> can + n't
			stem = word[:2] + "n"
		}
		if lower[:idx] == "wo" { // won't -> will + n't
			stem = "will"
		}
		return append(dst,
			New(stem, start, start+idx),
			Token{Text: "n't", Start: start + idx, End: start + len(word), lower: "n't"})
	}
	for _, clitic := range []string{"'s", "'re", "'ve", "'ll", "'d", "'m"} {
		if strings.HasSuffix(lower, clitic) && len(word) > len(clitic) {
			cut := len(word) - len(clitic)
			return append(dst,
				Token{Text: word[:cut], Start: start, End: start + cut, lower: lower[:cut]},
				Token{Text: word[cut:], Start: start + cut, End: start + len(word), lower: lower[cut:]})
		}
	}
	return append(dst, Token{Text: word, Start: start, End: start + len(word), lower: lower})
}

// SplitSentencesInto tokenizes text into toks (appending), groups the
// tokens into sentences appended to sents, and returns both extended
// slices. Sentence boundaries are ".", "!", "?" tokens, except after known
// abbreviations or single capital letters ("J. Smith"). The returned
// sentences alias the returned token slice, so they are valid only until
// the buffers are reused.
func SplitSentencesInto(sents []Sentence, toks []Token, text string) ([]Sentence, []Token) {
	tokBase := len(toks)
	toks = TokenizeInto(toks, text)
	fresh := toks[tokBase:]
	begin := 0
	for i := range fresh {
		if !isSentenceEnd(fresh, i) {
			continue
		}
		if i+1 > begin {
			sents = append(sents, makeSentence(fresh[begin:i+1]))
		}
		begin = i + 1
	}
	if begin < len(fresh) {
		sents = append(sents, makeSentence(fresh[begin:]))
	}
	return sents, toks
}

func isSentenceEnd(toks []Token, i int) bool {
	t := toks[i].Text
	if t != "." && t != "!" && t != "?" {
		return false
	}
	if t == "." && i > 0 {
		prev := toks[i-1].Lower()
		prev = strings.TrimSuffix(prev, ".")
		if abbreviations[prev] {
			return false
		}
		// Single capital letter: an initial, not a sentence end.
		if len(toks[i-1].Text) == 1 && unicode.IsUpper(rune(toks[i-1].Text[0])) {
			return false
		}
	}
	return true
}

func makeSentence(toks []Token) Sentence {
	return Sentence{Tokens: toks, Start: toks[0].Start, End: toks[len(toks)-1].End}
}

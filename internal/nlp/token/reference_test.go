package token

import "strings"

// referenceTokenizeInto and referenceAppendWordTokens are the tokenizer as
// it stood before the single-scan rewrite, kept verbatim: every word is
// lower-cased with strings.ToLower, every word is probed for contractions
// and clitics, every punctuation byte goes through New. They define what
// the tokenizer must emit — FuzzTokenizeMatchesReference compares the two
// token for token, Lower() included.
func referenceTokenizeInto(dst []Token, text string) []Token {
	i := 0
	n := len(text)
	for i < n {
		r := rune(text[i])
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			i++
		case isWordByte(text[i]):
			j := i
			for j < n && (isWordByte(text[j]) || isInnerByte(text, j)) {
				j++
			}
			dst = referenceAppendWordTokens(dst, text[i:j], i)
			i = j
		default:
			dst = append(dst, New(text[i:i+1], i, i+1))
			i++
		}
	}
	return dst
}

func referenceAppendWordTokens(dst []Token, word string, start int) []Token {
	lower := strings.ToLower(word)
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

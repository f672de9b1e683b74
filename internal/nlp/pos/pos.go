// Package pos implements the part-of-speech tagger of the Surveyor NLP
// substrate: lexicon lookup with contextual disambiguation rules, plus
// suffix and capitalisation heuristics for out-of-vocabulary words.
package pos

import (
	"strings"
	"unicode"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/token"
)

// Tagged pairs a token with its resolved part of speech.
type Tagged struct {
	token.Token
	Tag lexicon.Tag
	// Word is the lexicon's record of the token's lower-cased form. TagInto
	// resolves it — the one lexicon probe a token gets — and the tagging
	// rules and the entity tagger read it from here.
	Word lexicon.Word
}

// Tagger assigns parts of speech using a lexicon plus heuristics.
type Tagger struct {
	lex *lexicon.Lexicon
}

// New returns a tagger over the given lexicon.
func New(lex *lexicon.Lexicon) *Tagger {
	return &Tagger{lex: lex}
}

// TagInto appends the tagged tokens of sent to dst and returns the
// extended slice. Ambiguous lexicon entries are resolved with local
// context; unknown words fall back to suffix and shape heuristics. A first
// pass resolves every token's lexicon record; the second picks tags reading
// only records, the neighbours' included.
func (tg *Tagger) TagInto(dst []Tagged, sent token.Sentence) []Tagged {
	base := len(dst)
	for _, tok := range sent.Tokens {
		dst = append(dst, Tagged{Token: tok, Word: tg.lex.Word(tok.Lower())})
	}
	toks := dst[base:]
	for i := range toks {
		if toks[i].Word.Known() {
			toks[i].Tag = disambiguate(toks, i)
		} else {
			toks[i].Tag = guess(toks, i)
		}
	}
	return dst
}

// disambiguate picks among a word's possible lexicon tags using local
// context. The preference order of the lexicon is the fallback.
func disambiguate(toks []Tagged, i int) lexicon.Tag {
	w := toks[i].Word
	// At a sentence edge the neighbour is the unknown word, which has no
	// tag and is in no class.
	var prev, next lexicon.Word
	if i > 0 {
		prev = toks[i-1].Word
	}
	if i+1 < len(toks) {
		next = toks[i+1].Word
	}

	// "that": complementizer after a verb ("think that ..."), determiner
	// directly before a common noun ("that city"), otherwise Mark.
	if w.HasTag(lexicon.Det) && w.HasTag(lexicon.Mark) {
		if prev.HasTag(lexicon.Verb) {
			return lexicon.Mark
		}
		if next.HasTag(lexicon.Noun) && !next.HasTag(lexicon.Propn) {
			return lexicon.Det
		}
		return lexicon.Mark
	}
	// Adjective/adverb ambiguity ("pretty", "fast"): adverb when directly
	// preceding an adjective or adverb, adjective otherwise.
	if w.HasTag(lexicon.Adj) && w.HasTag(lexicon.Adv) {
		if next.HasTag(lexicon.Adj) || next.HasTag(lexicon.Adv) {
			return lexicon.Adv
		}
		return lexicon.Adj
	}
	// Verb/noun ambiguity ("visit", "play"): noun after a determiner or
	// adjective, verb otherwise.
	if w.HasTag(lexicon.Verb) && w.HasTag(lexicon.Noun) {
		if prev.HasTag(lexicon.Det) || prev.HasTag(lexicon.Adj) {
			return lexicon.Noun
		}
		return lexicon.Verb
	}
	// Aux/verb: "do"/"have" are auxiliaries when followed by a negation or
	// another verb, main verbs otherwise.
	if w.HasTag(lexicon.Aux) {
		if next.IsNegation() || next.HasTag(lexicon.Verb) || next.HasTag(lexicon.Pron) {
			return lexicon.Aux
		}
	}
	return w.Primary()
}

// guess handles out-of-vocabulary words with shape and suffix heuristics.
func guess(toks []Tagged, i int) lexicon.Tag {
	lower := toks[i].Lower()
	r := rune(toks[i].Text[0])
	if r >= '0' && r <= '9' {
		return lexicon.Num
	}
	if !unicode.IsLetter(r) {
		return lexicon.Punct
	}
	// Capitalised mid-sentence (or anywhere): proper noun. At sentence
	// start only if the lexicon truly does not know the lower-case form —
	// which is already the case here.
	if unicode.IsUpper(r) {
		return lexicon.Propn
	}
	switch {
	case strings.HasSuffix(lower, "ly"):
		return lexicon.Adv
	case strings.HasSuffix(lower, "ous"), strings.HasSuffix(lower, "ful"),
		strings.HasSuffix(lower, "ive"), strings.HasSuffix(lower, "able"),
		strings.HasSuffix(lower, "ible"), strings.HasSuffix(lower, "ish"),
		strings.HasSuffix(lower, "less"), strings.HasSuffix(lower, "esque"),
		strings.HasSuffix(lower, "ic"):
		return lexicon.Adj
	case strings.HasSuffix(lower, "ing"), strings.HasSuffix(lower, "ed"):
		// Participles after a copula act adjectivally ("is crowded");
		// before a noun as well ("a crowded city"). Treat as verb only in
		// clear verbal position (after an auxiliary or pronoun subject).
		if i > 0 {
			p := toks[i-1].Word
			if p.HasTag(lexicon.Aux) || p.HasTag(lexicon.Pron) {
				return lexicon.Verb
			}
			if p.IsCopula() || p.HasTag(lexicon.Adv) || p.HasTag(lexicon.Det) {
				return lexicon.Adj
			}
		}
		return lexicon.Verb
	default:
		return lexicon.Noun
	}
}

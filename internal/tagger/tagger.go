// Package tagger implements entity mention detection and disambiguation
// over tokenized sentences — the substitute for the entity annotations the
// paper's web snapshot came pre-processed with.
//
// Linking is greedy longest-match over an alias index, with a
// disambiguation step: candidates are scored by type context (does the
// sentence mention the entity's type noun?) and prominence; unresolvable
// mentions are dropped, prioritising precision over recall exactly as the
// paper's extraction design does (Section 2 discarded 11 of 23
// high-traffic city names for ambiguity).
package tagger

import (
	"unicode"

	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
)

// Mention links a token span [Start,End) to a knowledge-base entity.
type Mention struct {
	Entity kb.EntityID
	Start  int // first token index
	End    int // one past the last token index
	Head   int // syntactic head token of the span (its last token)
}

// Covers reports whether the mention span contains token index i.
func (m Mention) Covers(i int) bool { return i >= m.Start && i < m.End }

// Tagger links entity mentions. It is immutable after construction and
// safe for concurrent use.
type Tagger struct {
	kb      *kb.KB
	aliases *kb.AliasTable
}

// New builds a tagger over the given knowledge base and lexicon. It costs
// nothing to speak of when the knowledge base was registered with the
// lexicon (kb.RegisterLexicon), which builds the alias table.
func New(base *kb.KB, lex *lexicon.Lexicon) *Tagger {
	return &Tagger{kb: base, aliases: base.AliasTable(lex)}
}

// Scratch holds one worker's reusable probe buffer. A Scratch must not be
// shared between goroutines.
type Scratch struct {
	surface []byte
}

// TagInto scans a tagged sentence left to right with greedy longest-match
// and appends the resolved, non-overlapping mentions to dst in order,
// returning the extended slice.
func (t *Tagger) TagInto(dst []Mention, sc *Scratch, tagged []pos.Tagged) []Mention {
	i := 0
	for i < len(tagged) {
		m, ok := t.matchAt(sc, tagged, i)
		if !ok {
			i++
			continue
		}
		dst = append(dst, m)
		i = m.End
	}
	return dst
}

// matchAt tries to link a mention starting at token i, longest span first.
func (t *Tagger) matchAt(sc *Scratch, tagged []pos.Tagged, i int) (Mention, bool) {
	// No alias starts with this word: no span from i can match.
	w := tagged[i].Word
	maxLen := t.aliases.Span(w)
	if maxLen == 0 {
		return Mention{}, false
	}
	if rest := len(tagged) - i; rest < maxLen {
		maxLen = rest
	}
	for n := maxLen; n >= 1; n-- {
		if !plausibleSpan(tagged[i : i+n]) {
			continue
		}
		var cands []kb.EntityID
		if n == 1 && w.Known() {
			cands = t.aliases.Single(w)
		} else {
			sc.surface = appendLowerSurface(sc.surface[:0], tagged[i:i+n])
			cands = t.kb.CandidatesLowerBytes(sc.surface)
		}
		if len(cands) == 0 {
			continue
		}
		if id, ok := t.resolve(tagged, cands, tagged[i:i+n]); ok {
			return Mention{Entity: id, Start: i, End: i + n, Head: i + n - 1}, true
		}
		// A matching surface that cannot be resolved blocks shorter
		// sub-spans too ("San Francisco" failing must not link "San").
		return Mention{}, false
	}
	return Mention{}, false
}

// appendLowerSurface appends the space-joined lower-cased span text to buf.
func appendLowerSurface(buf []byte, span []pos.Tagged) []byte {
	for i := range span {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, span[i].Lower()...)
	}
	return buf
}

// plausibleSpan rejects spans that cannot be a name: punctuation or verbs
// inside, which keeps the n-gram probing cheap and precise.
func plausibleSpan(span []pos.Tagged) bool {
	for _, tok := range span {
		switch tok.Tag {
		case lexicon.Punct, lexicon.Verb, lexicon.Aux, lexicon.Prep,
			lexicon.Conj, lexicon.Neg, lexicon.Mark:
			return false
		}
	}
	return true
}

// resolve picks one entity among the candidates, or fails.
func (t *Tagger) resolve(tagged []pos.Tagged, cands []kb.EntityID, span []pos.Tagged) (kb.EntityID, bool) {
	type scored struct {
		id    kb.EntityID
		score float64
	}
	var best, second scored
	best.score, second.score = -1, -1
	for _, id := range cands {
		e := t.kb.Get(id)
		if e.Proper && !startsUpper(span[0].Text) {
			continue // proper names must be capitalised in text
		}
		hasCtx := t.typeContext(tagged, e.Type)
		score := 0.0
		if hasCtx {
			score += 2
		}
		score += e.Attr("prominence", 0.5)
		if e.Ambiguous {
			// Ambiguous names need explicit type context to link at all.
			if !hasCtx {
				continue
			}
			score -= 0.25
		}
		if score > best.score {
			second = best
			best = scored{id, score}
		} else if score > second.score {
			second = scored{id, score}
		}
	}
	if best.score < 0 {
		return 0, false
	}
	// Require a clear winner; near-ties are disambiguation failures.
	if second.score >= 0 && best.score-second.score < 0.05 {
		return 0, false
	}
	return best.id, true
}

// typeContext reports whether the sentence mentions the type noun
// (singular or plural) of the given entity type.
func (t *Tagger) typeContext(tagged []pos.Tagged, typ string) bool {
	tn := t.aliases.TypeNoun(typ)
	for i := range tagged {
		w := tagged[i].Word
		if w.ID != tn.Singular && w.ID != tn.Plural {
			continue
		}
		if w.Known() {
			return true
		}
		// The token and one form of the type noun are both unknown to the
		// lexicon, which says nothing about their being the same word.
		if lw := tagged[i].Lower(); lw == tn.SingularLower || lw == tn.PluralLower {
			return true
		}
	}
	return false
}

func startsUpper(s string) bool {
	if s == "" {
		return false
	}
	return unicode.IsUpper(rune(s[0]))
}

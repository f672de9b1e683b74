// Package extract implements Surveyor's evidence-statement extraction
// (Section 4 of the paper): the three dependency patterns of Figure 4
// (adjectival modifier, adjectival complement, conjunction), the
// intrinsicness filters, and the negation-path polarity rule of Figure 5.
//
// The four historical pattern versions of Appendix B (Table 4) are
// available via VersionConfig, so the extraction-quality ablation can be
// reproduced.
package extract

import (
	"strings"

	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/tagger"
)

// Polarity of an evidence statement.
type Polarity int8

// Statement polarities. (Neutral exists only for aggregate results of
// downstream voters, never for extracted statements.)
const (
	Negative Polarity = -1
	Positive Polarity = +1
)

// Pattern identifies which extraction pattern produced a statement.
type Pattern int8

// The Figure-4 patterns.
const (
	AdjectivalModifier Pattern = iota
	AdjectivalComplement
	Conjunction
)

func (p Pattern) String() string {
	switch p {
	case AdjectivalModifier:
		return "amod"
	case AdjectivalComplement:
		return "acomp"
	case Conjunction:
		return "conj"
	}
	return "unknown"
}

// Statement is one extracted piece of evidence: a claim that Property
// does (Positive) or does not (Negative) apply to Entity.
type Statement struct {
	Entity   kb.EntityID
	Property string // normalised: optional degree adverbs + adjective, lower case
	Polarity Polarity
	Pattern  Pattern
}

// Version selects one of the four historical extraction configurations of
// Appendix B.
type Version int

// The pattern versions of Table 4.
const (
	V1 Version = iota + 1 // amod, broad copula class, no checks
	V2                    // amod+acomp, broad copula class, no checks
	V3                    // acomp only, "to be" only, intrinsicness checks
	V4                    // amod+acomp, "to be" only, checks — the shipped version
)

// Config is the knob set behind the versions.
type Config struct {
	UseAmod  bool // adjectival modifier pattern enabled
	UseAcomp bool // adjectival complement pattern enabled
	ToBeOnly bool // restrict the copular verb to forms of "to be"
	Checks   bool // intrinsicness filters (PP constriction + coreference)
}

// VersionConfig maps a Version to its Config.
func VersionConfig(v Version) Config {
	switch v {
	case V1:
		return Config{UseAmod: true}
	case V2:
		return Config{UseAmod: true, UseAcomp: true}
	case V3:
		return Config{UseAcomp: true, ToBeOnly: true, Checks: true}
	default:
		return Config{UseAmod: true, UseAcomp: true, ToBeOnly: true, Checks: true}
	}
}

// Extractor matches the extraction patterns against dependency trees. It
// is stateless and safe for concurrent use.
type Extractor struct {
	lex *lexicon.Lexicon
	cfg Config
}

// New returns an extractor with the given configuration.
func New(lex *lexicon.Lexicon, cfg Config) *Extractor {
	return &Extractor{lex: lex, cfg: cfg}
}

// NewVersion returns an extractor for one of the Appendix-B versions.
func NewVersion(lex *lexicon.Lexicon, v Version) *Extractor {
	return New(lex, VersionConfig(v))
}

// degreeAdverbs may become part of a property ("very big", "densely
// populated"); other adverbs ("also", "still") are ignored.
var degreeAdverbs = map[string]bool{
	"very": true, "really": true, "extremely": true, "incredibly": true,
	"quite": true, "rather": true, "truly": true, "so": true, "too": true,
	"highly": true, "fairly": true, "pretty": true, "remarkably": true,
	"surprisingly": true, "exceptionally": true, "particularly": true,
	"somewhat": true, "slightly": true, "absolutely": true, "totally": true,
	"completely": true, "utterly": true, "densely": true, "sparsely": true,
	"genuinely": true,
}

// ExtractInto appends all evidence statements found in one parsed sentence
// to dst and returns the extended slice. mentions must be the entity
// mentions of the same sentence. Deduplication is per sentence: only
// statements appended by this call are considered.
func (x *Extractor) ExtractInto(dst []Statement, tree *depparse.Tree, mentions []tagger.Mention) []Statement {
	if tree.Root() < 0 || len(mentions) == 0 {
		return dst
	}
	base := len(dst)
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.Tag != lexicon.Adj {
			continue
		}
		switch {
		case x.cfg.UseAcomp && x.isAcompHead(tree, i):
			if x.cfg.Checks && x.subjectRestricted(tree, i) {
				continue
			}
			if ent, ok := x.subjectEntity(tree, i, mentions); ok {
				dst = x.emitWithConjuncts(dst, base, tree, i, i, ent, AdjectivalComplement)
			}
		case x.cfg.UseAmod && n.Rel == depparse.Amod:
			noun := n.Head
			if ent, ok := x.amodEntity(tree, noun, mentions); ok {
				dst = x.emitWithConjuncts(dst, base, tree, i, noun, ent, AdjectivalModifier)
			}
		}
	}
	return dst
}

// appendDedup appends s unless an equal claim (entity, property, polarity)
// was already appended by the current sentence (dst[base:]). Sentences
// yield a handful of statements at most, so a linear scan beats a map.
func appendDedup(dst []Statement, base int, s Statement) []Statement {
	for _, prev := range dst[base:] {
		if prev.Entity == s.Entity && prev.Polarity == s.Polarity && prev.Property == s.Property {
			return dst
		}
	}
	return append(dst, s)
}

// isAcompHead reports whether node i heads an adjectival-complement
// pattern: an adjective with a copula child satisfying the version's verb
// restriction and a subject.
func (x *Extractor) isAcompHead(tree *depparse.Tree, i int) bool {
	cop := tree.FirstChildWith(i, depparse.Cop)
	if cop < 0 {
		return false
	}
	if !x.verbOK(tree.Nodes[cop].Lower()) {
		return false
	}
	return tree.HasChildWith(i, depparse.Nsubj)
}

func (x *Extractor) verbOK(verb string) bool {
	if x.cfg.ToBeOnly {
		return x.lex.IsToBe(verb)
	}
	return x.lex.IsCopula(verb)
}

// subjectEntity resolves the entity of the nsubj child of node i.
func (x *Extractor) subjectEntity(tree *depparse.Tree, i int, mentions []tagger.Mention) (kb.EntityID, bool) {
	s := tree.FirstChildWith(i, depparse.Nsubj)
	if s < 0 {
		return 0, false
	}
	return entityAt(mentions, s)
}

// amodEntity resolves the entity an adjectival-modifier statement is
// about, given the modified noun. Two sub-cases:
//
//  1. Predicate nominal ("Snakes are dangerous animals"): the noun has a
//     copula and a subject; the statement is about the subject entity.
//     This is the coreferential configuration the checks require.
//  2. Direct modification ("the cute cat", "southern France"): the noun
//     itself is an entity mention. Only extracted when checks are off
//     (versions 1-2); the paper's coreference filter drops it otherwise.
func (x *Extractor) amodEntity(tree *depparse.Tree, noun int, mentions []tagger.Mention) (kb.EntityID, bool) {
	cop := tree.FirstChildWith(noun, depparse.Cop)
	if cop >= 0 && tree.HasChildWith(noun, depparse.Nsubj) {
		if !x.verbOK(tree.Nodes[cop].Lower()) {
			return 0, false
		}
		if x.cfg.Checks && (x.hasConstriction(tree, noun, noun) || x.subjectRestricted(tree, noun)) {
			return 0, false
		}
		return x.subjectEntity(tree, noun, mentions)
	}
	// Appositive rename ("San Francisco, a beautiful city, ..."): the
	// modified noun is coreferential with the entity it renames — the
	// other configuration the Section-4 coreference test accepts.
	if tree.Nodes[noun].Rel == depparse.Appos {
		if x.cfg.Checks && x.hasConstriction(tree, noun, noun) {
			return 0, false
		}
		return entityAt(mentions, tree.Nodes[noun].Head)
	}
	if x.cfg.Checks {
		return 0, false // non-coreferential amod: filtered (Section 4)
	}
	return entityAt(mentions, noun)
}

// emitWithConjuncts appends the statement for adjective adj plus one
// statement per conjoined adjective (Figure 4(c)); top is the pattern's
// top-level node, used by the constriction filter.
func (x *Extractor) emitWithConjuncts(dst []Statement, base int, tree *depparse.Tree, adj, top int, ent kb.EntityID, pat Pattern) []Statement {
	if x.cfg.Checks && x.hasConstriction(tree, adj, top) {
		return dst
	}
	dst = appendDedup(dst, base, Statement{
		Entity:   ent,
		Property: x.buildProperty(tree, adj),
		Polarity: x.pathPolarity(tree, adj),
		Pattern:  pat,
	})
	for _, c := range tree.Children(adj) {
		if tree.Nodes[c].Rel != depparse.Conj || tree.Nodes[c].Tag != lexicon.Adj {
			continue
		}
		if x.cfg.Checks && x.hasConstriction(tree, c, top) {
			continue
		}
		dst = appendDedup(dst, base, Statement{
			Entity:   ent,
			Property: x.buildProperty(tree, c),
			Polarity: x.pathPolarity(tree, c),
			Pattern:  Conjunction,
		})
	}
	return dst
}

// subjectRestricted reports whether the subject of the pattern at node i
// carries an adjectival modifier — "Southern France is warm" makes a claim
// about a part of the entity, not the entity itself, and is filtered by
// the coreference test of Section 4.
func (x *Extractor) subjectRestricted(tree *depparse.Tree, i int) bool {
	s := tree.FirstChildWith(i, depparse.Nsubj)
	if s < 0 {
		return false
	}
	return tree.HasChildWith(s, depparse.Amod)
}

// hasConstriction implements the non-intrinsic filter: a prepositional
// subtree attached to the adjective or to the pattern's top-level node,
// positioned after it, restricts the statement to an aspect ("bad for
// parking") and disqualifies it.
func (x *Extractor) hasConstriction(tree *depparse.Tree, adj, top int) bool {
	if prepAfter(tree, adj) {
		return true
	}
	return top != adj && prepAfter(tree, top)
}

// prepAfter reports whether node has a prepositional child positioned after
// it in the sentence.
func prepAfter(tree *depparse.Tree, node int) bool {
	for _, c := range tree.Children(node) {
		if c > node && tree.Nodes[c].Rel == depparse.Prep {
			return true
		}
	}
	return false
}

// buildProperty normalises the property phrase: the maximal chain of
// degree-adverb advmod children immediately preceding the adjective,
// followed by the adjective, all lower-cased.
func (x *Extractor) buildProperty(tree *depparse.Tree, adj int) string {
	// Children are in token order; walk backwards to find the contiguous
	// degree-adverb chain ending immediately before the adjective. Because
	// the chain is contiguous, the accepted adverbs are exactly the tokens
	// at positions want+1 .. adj-1.
	want := adj - 1
	children := tree.Children(adj)
	for k := len(children) - 1; k >= 0; k-- {
		c := children[k]
		if c == want && tree.Nodes[c].Rel == depparse.Advmod && degreeAdverbs[tree.Nodes[c].Lower()] {
			want = c - 1
		}
	}
	if want == adj-1 {
		// No adverbs: the property is the bare adjective — no building.
		return tree.Nodes[adj].Lower()
	}
	var b strings.Builder
	for a := want + 1; a <= adj; a++ {
		if a > want+1 {
			b.WriteByte(' ')
		}
		b.WriteString(tree.Nodes[a].Lower())
	}
	return b.String()
}

// pathPolarity implements Figure 5: starting at +1, flip the sign at every
// negated token on the path from the property token to the root. A cycle
// (a parser bug) yields Positive.
func (x *Extractor) pathPolarity(tree *depparse.Tree, adj int) Polarity {
	pol := Positive
	steps := 0
	for n := adj; n >= 0; n = tree.Nodes[n].Head {
		if steps > len(tree.Nodes) {
			return Positive
		}
		steps++
		if tree.IsNegated(n) {
			pol = -pol
		}
	}
	return pol
}

// entityAt returns the entity of the mention whose head is token i, or
// that covers token i.
func entityAt(mentions []tagger.Mention, i int) (kb.EntityID, bool) {
	for _, m := range mentions {
		if m.Head == i {
			return m.Entity, true
		}
	}
	for _, m := range mentions {
		if m.Covers(i) {
			return m.Entity, true
		}
	}
	return 0, false
}

package depparse

import (
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
)

// Parser turns POS-tagged sentences into dependency trees. It is stateless
// and safe for concurrent use.
type Parser struct {
	lex *lexicon.Lexicon
}

// New returns a parser over the given lexicon (used for copula and
// negation word classes).
func New(lex *lexicon.Lexicon) *Parser {
	return &Parser{lex: lex}
}

// Scratch holds one worker's reusable parse buffers: the head/relation/
// placement arrays the builder works in and the output tree itself. A
// Scratch must not be shared between goroutines.
type Scratch struct {
	head   []int
	rel    []Label
	placed []bool
	tree   Tree
}

func (sc *Scratch) grow(n int) {
	if cap(sc.head) < n {
		sc.head = make([]int, n)
		sc.rel = make([]Label, n)
		sc.placed = make([]bool, n)
	} else {
		sc.head = sc.head[:n]
		sc.rel = sc.rel[:n]
		sc.placed = sc.placed[:n]
	}
}

// ParseInto builds a dependency tree for one tagged sentence. The parser
// never fails: tokens it cannot place are attached to the root with the
// fallback label so the tree is always connected and single-headed. The
// returned tree is owned by sc and valid only until the next ParseInto call
// with the same scratch.
func (p *Parser) ParseInto(sc *Scratch, tagged []pos.Tagged) *Tree {
	if len(tagged) == 0 {
		sc.tree = Tree{root: -1, children: sc.tree.children[:0]}
		return &sc.tree
	}
	sc.grow(len(tagged))
	b := builder{
		lex:    p.lex,
		toks:   tagged,
		head:   sc.head,
		rel:    sc.rel,
		placed: sc.placed,
	}
	for i := range b.head {
		b.head[i] = -1
		b.rel[i] = Dep
		b.placed[i] = false
	}
	root := b.parseClause(0, len(tagged))
	if root < 0 {
		// Degenerate sentence (all punctuation, etc.): first token roots.
		root = 0
		b.placed[0] = true
	}
	b.head[root] = -1
	b.rel[root] = RootLabel
	b.placed[root] = true
	b.sweepUnplaced(root)
	fillTree(&sc.tree, tagged, b.head, b.rel, root)
	return &sc.tree
}

type builder struct {
	lex    *lexicon.Lexicon
	toks   []pos.Tagged
	head   []int
	rel    []Label
	placed []bool
}

func (b *builder) attach(child, head int, rel Label) {
	if child == head || child < 0 {
		return
	}
	b.head[child] = head
	b.rel[child] = rel
	b.placed[child] = true
}

func (b *builder) tag(i int) lexicon.Tag { return b.toks[i].Tag }
func (b *builder) text(i int) string     { return b.toks[i].Lower() }

// sweepUnplaced attaches every remaining token to the root with a sensible
// default so the tree is always connected.
func (b *builder) sweepUnplaced(root int) {
	for i := range b.toks {
		if b.placed[i] || i == root {
			continue
		}
		switch b.tag(i) {
		case lexicon.Punct:
			b.attach(i, root, Punct)
		case lexicon.Adv:
			b.attach(i, root, Advmod)
		case lexicon.Neg:
			b.attach(i, root, Neg)
		default:
			b.attach(i, root, Dep)
		}
	}
}

// parseClause parses toks[lo:hi) and returns the clause root index, or -1
// for an empty/unusable span.
func (b *builder) parseClause(lo, hi int) int {
	lo, hi = b.trim(lo, hi)
	if lo >= hi {
		return -1
	}

	// Complement clause: matrix verb ... MARK ... subordinate clause.
	if v := b.firstVerb(lo, hi); v >= 0 {
		if m := b.firstMark(v+1, hi); m >= 0 && m+1 < hi {
			matrixRoot := b.parseSimpleClause(lo, m)
			subRoot := b.parseClause(m+1, hi)
			switch {
			case matrixRoot >= 0 && subRoot >= 0:
				b.attach(subRoot, matrixRoot, Ccomp)
				b.attach(m, subRoot, Mark)
				return matrixRoot
			case subRoot >= 0:
				b.attach(m, subRoot, Mark)
				return subRoot
			case matrixRoot >= 0:
				return matrixRoot
			}
			return -1
		}
	}
	return b.parseSimpleClause(lo, hi)
}

// trim narrows the span past leading/trailing punctuation (it will be
// swept to the root later).
func (b *builder) trim(lo, hi int) (int, int) {
	for lo < hi && b.tag(lo) == lexicon.Punct {
		lo++
	}
	for hi > lo && b.tag(hi-1) == lexicon.Punct {
		hi--
	}
	return lo, hi
}

func (b *builder) firstVerb(lo, hi int) int {
	for i := lo; i < hi; i++ {
		if b.tag(i) == lexicon.Verb {
			return i
		}
	}
	return -1
}

func (b *builder) firstMark(lo, hi int) int {
	for i := lo; i < hi; i++ {
		if b.tag(i) == lexicon.Mark {
			return i
		}
	}
	return -1
}

// parseSimpleClause parses a clause with no complementizer.
func (b *builder) parseSimpleClause(lo, hi int) int {
	lo, hi = b.trim(lo, hi)
	if lo >= hi {
		return -1
	}

	gStart, gEnd, vHead := b.findVerbGroup(lo, hi)
	if vHead < 0 {
		// Verbless span: parse as a bare NP/AdjP fragment.
		return b.parseFragment(lo, hi)
	}

	// Subject: head of the last nominal chunk before the verb group.
	var orphanBuf [8]int // on the stack, like parseNP's
	subj, orphans := b.parseSubject(lo, gStart, orphanBuf[:0])

	copula := b.lex.IsCopula(b.text(vHead))
	var root int
	if copula {
		root = b.parseCopularPredicate(gEnd, hi, vHead)
	}
	if !copula || root < 0 {
		root = vHead
		b.parseVerbalPredicate(gEnd, hi, vHead)
	}

	// Attach the verb group to the clause root.
	if root != vHead {
		b.attach(vHead, root, Cop)
	}
	for i := gStart; i < gEnd; i++ {
		if i == vHead || b.placed[i] {
			continue
		}
		switch b.tag(i) {
		case lexicon.Aux:
			b.attach(i, root, Aux)
		case lexicon.Neg:
			b.attach(i, root, Neg)
		case lexicon.Adv:
			b.attach(i, root, Advmod)
		default:
			b.attach(i, root, Dep)
		}
	}
	if subj >= 0 {
		b.attach(subj, root, Nsubj)
	}
	// Nominal chunks before the subject proper ("In Rome I saw...")
	// attach to the root with the fallback label.
	for _, o := range orphans {
		b.attach(o, root, Dep)
	}
	// Leading material before the subject (PPs, adverbs) attaches to root.
	b.attachLeftovers(lo, gStart, root)
	return root
}

// findVerbGroup locates the first verb group in [lo,hi): a maximal run of
// auxiliaries, negations, group-internal adverbs, and verbs containing at
// least one Verb/Aux token. Returns (start, end, headVerb); headVerb is the
// last Verb in the group (or the last Aux if no main verb follows).
func (b *builder) findVerbGroup(lo, hi int) (int, int, int) {
	start := -1
	for i := lo; i < hi; i++ {
		if b.tag(i) == lexicon.Verb || b.tag(i) == lexicon.Aux {
			start = i
			break
		}
	}
	if start < 0 {
		return -1, -1, -1
	}
	end := start
	vHead := -1
	for end < hi {
		switch b.tag(end) {
		case lexicon.Verb:
			vHead = end
			end++
		case lexicon.Aux:
			end++
		case lexicon.Neg:
			// A negation is group-internal only if more verbal material or
			// a predicate follows within the group's reach ("do n't think",
			// "is never dangerous" keeps "never" OUT of the group so it
			// attaches to the adjective instead — Stanford attaches both
			// to the predicate; we fold group negs onto the root anyway).
			if end+1 < hi && (b.tag(end+1) == lexicon.Verb || b.tag(end+1) == lexicon.Aux) {
				end++
				continue
			}
			return start, end, headOr(vHead, start)
		default:
			return start, end, headOr(vHead, start)
		}
	}
	return start, end, headOr(vHead, start)
}

func headOr(v, fallback int) int {
	if v >= 0 {
		return v
	}
	return fallback
}

// parseSubject chunks [lo,hi) and returns the head of the last nominal
// chunk (the subject, -1 if none) plus any earlier chunk heads that were
// claimed but displaced and still need an attachment, appended to orphans.
func (b *builder) parseSubject(lo, hi int, orphans []int) (int, []int) {
	subj := -1
	lastComma := -1 // index of a comma directly after the current subject
	claim := func(head int) {
		if subj >= 0 {
			orphans = append(orphans, subj)
		}
		subj = head
	}
	i := lo
	for i < hi {
		switch b.tag(i) {
		case lexicon.Pron:
			claim(i)
			b.placed[i] = true // will be attached as nsubj by caller
			lastComma = -1
			i++
		case lexicon.Det, lexicon.Adj, lexicon.Adv, lexicon.Noun, lexicon.Propn, lexicon.Num:
			// Appositive: "San Francisco, a beautiful city, is ..." — a
			// determiner-initial NP right after a comma renames the
			// proper-noun subject rather than replacing it.
			if lastComma >= 0 && subj >= 0 && b.tag(i) == lexicon.Det &&
				b.tag(subj) == lexicon.Propn {
				head, end := b.parseNP(i, hi)
				if head >= 0 {
					b.attach(head, subj, Appos)
					b.attach(lastComma, head, Punct)
					lastComma = -1
					i = end
					// A closing comma after the appositive attaches to it.
					if i < hi && b.toks[i].Text == "," {
						b.attach(i, head, Punct)
						i++
					}
					continue
				}
			}
			head, end := b.parseNP(i, hi)
			if head >= 0 {
				claim(head)
				lastComma = -1
				i = end
			} else {
				i++
			}
		default:
			if b.toks[i].Text == "," && subj >= 0 {
				lastComma = i
			} else {
				lastComma = -1
			}
			i++
		}
	}
	return subj, orphans
}

// attachLeftovers attaches any still-unplaced tokens in [lo,hi) to head:
// prepositions start PPs, everything else gets a default label.
func (b *builder) attachLeftovers(lo, hi, head int) {
	i := lo
	for i < hi {
		if b.placed[i] {
			i++
			continue
		}
		switch b.tag(i) {
		case lexicon.Prep:
			i = b.parsePP(i, hi, head)
		case lexicon.Punct:
			b.attach(i, head, Punct)
			i++
		case lexicon.Adv:
			b.attach(i, head, Advmod)
			i++
		case lexicon.Neg:
			b.attach(i, head, Neg)
			i++
		default:
			b.attach(i, head, Dep)
			i++
		}
	}
}

// parseCopularPredicate parses the predicate of a copular clause starting
// at lo. Returns the predicate head (adjective or predicate-nominal noun),
// or -1 when no usable predicate exists (e.g. "the city is there").
func (b *builder) parseCopularPredicate(lo, hi, copIdx int) int {
	i := lo
	// Pre-predicate negations: remember them, attach to the head once
	// known ("is not big", "is never a big city"). Adverbs are NOT
	// collected here — a degree adverb belongs to the following adjective
	// and the AdjP parser claims it ("is very big").
	for i < hi && b.tag(i) == lexicon.Neg {
		i++
	}
	negEnd := i

	root, end := -1, 0
	switch {
	case i < hi && (b.tag(i) == lexicon.Adv || b.tag(i) == lexicon.Adj):
		// Might still be an NP ("a very big city" starts with Det, so Adv
		// here means AdjP; Adj could open either "big" or "big city").
		if b.isNPStart(i, hi) {
			root, end = b.parseNP(i, hi)
		} else {
			root, end = b.parseAdjP(i, hi)
		}
	case i < hi && (b.tag(i) == lexicon.Det || b.tag(i) == lexicon.Noun ||
		b.tag(i) == lexicon.Propn || b.tag(i) == lexicon.Num):
		root, end = b.parseNP(i, hi)
	}
	if root < 0 {
		return -1
	}
	for n := lo; n < negEnd; n++ {
		b.attach(n, root, Neg)
	}
	// Post-predicate material: PPs restrict the predicate ("bad for
	// parking"); leftovers default-attach.
	b.attachLeftovers(end, hi, root)
	return root
}

// isNPStart reports whether an Adj/Adv at i opens a noun phrase (i.e. a
// noun head follows within the adjectival run) rather than a bare AdjP.
func (b *builder) isNPStart(i, hi int) bool {
	for j := i; j < hi; j++ {
		switch b.tag(j) {
		case lexicon.Adj, lexicon.Adv, lexicon.Conj, lexicon.Det:
			continue
		case lexicon.Noun, lexicon.Propn:
			return true
		default:
			return false
		}
	}
	return false
}

// parseVerbalPredicate parses the complement span of a main verb: direct
// object NP, optional adjectival xcomp ("find kittens cute"), PPs.
func (b *builder) parseVerbalPredicate(lo, hi, verb int) {
	i := lo
	seenDobj := false
	for i < hi {
		if b.placed[i] {
			i++
			continue
		}
		switch b.tag(i) {
		case lexicon.Det, lexicon.Noun, lexicon.Propn, lexicon.Num:
			head, end := b.parseNP(i, hi)
			if head < 0 {
				i++
				continue
			}
			if !seenDobj {
				b.attach(head, verb, Dobj)
				seenDobj = true
			} else {
				b.attach(head, verb, Dep)
			}
			i = end
		case lexicon.Pron:
			if !seenDobj {
				b.attach(i, verb, Dobj)
				seenDobj = true
			} else {
				b.attach(i, verb, Dep)
			}
			i++
		case lexicon.Adj, lexicon.Adv:
			if b.isNPStart(i, hi) {
				head, end := b.parseNP(i, hi)
				if head >= 0 {
					if !seenDobj {
						b.attach(head, verb, Dobj)
						seenDobj = true
					} else {
						b.attach(head, verb, Dep)
					}
					i = end
					continue
				}
			}
			head, end := b.parseAdjP(i, hi)
			if head >= 0 {
				// Object-predicative adjective ("find kittens cute").
				b.attach(head, verb, Xcomp)
				i = end
				continue
			}
			i++
		case lexicon.Prep:
			i = b.parsePP(i, hi, verb)
		case lexicon.Neg:
			b.attach(i, verb, Neg)
			i++
		case lexicon.Punct:
			b.attach(i, verb, Punct)
			i++
		default:
			b.attach(i, verb, Dep)
			i++
		}
	}
}

// parseFragment handles verbless spans: a bare NP or AdjP.
func (b *builder) parseFragment(lo, hi int) int {
	if b.isNPStart(lo, hi) || b.tag(lo) == lexicon.Det ||
		b.tag(lo) == lexicon.Noun || b.tag(lo) == lexicon.Propn {
		head, end := b.parseNP(lo, hi)
		if head >= 0 {
			b.attachLeftovers(end, hi, head)
			return head
		}
	}
	if b.tag(lo) == lexicon.Adj || b.tag(lo) == lexicon.Adv {
		head, end := b.parseAdjP(lo, hi)
		if head >= 0 {
			b.attachLeftovers(end, hi, head)
			return head
		}
	}
	return lo
}

// parseNP parses a noun phrase starting at lo: Det? (Adv* Adj (Cc Adj)*)*
// (Noun|Propn|Num)+. Returns (head, end) where head is the last
// noun/proper-noun; (-1, lo) if no noun head is found.
func (b *builder) parseNP(lo, hi int) (int, int) {
	i := lo
	var det = -1
	if i < hi && b.tag(i) == lexicon.Det {
		det = i
		i++
	}
	// Adjective-group heads and nouns, on the stack for any phrase of
	// ordinary length (append moves a longer one to the heap).
	var groupBuf, nounBuf [8]int
	groups, nouns := groupBuf[:0], nounBuf[:0]

scan:
	for i < hi {
		switch b.tag(i) {
		case lexicon.Adv:
			// Degree adverb of a following adjective.
			if i+1 < hi && (b.tag(i+1) == lexicon.Adj || b.tag(i+1) == lexicon.Adv) {
				adjHead, end := b.parseAdjP(i, hi)
				if adjHead >= 0 {
					groups = append(groups, adjHead)
					i = end
					continue
				}
			}
			break scan
		case lexicon.Adj:
			// Adjectives only premodify: once a noun has been scanned the
			// NP is closed ("find kittens cute" must not fold "cute" in).
			if len(nouns) > 0 {
				break scan
			}
			adjHead, end := b.parseAdjP(i, hi)
			if adjHead < 0 {
				break scan
			}
			groups = append(groups, adjHead)
			i = end
		case lexicon.Noun, lexicon.Propn, lexicon.Num:
			nouns = append(nouns, i)
			i++
		default:
			break scan
		}
	}
	if len(nouns) == 0 {
		// No noun materialised: release the adjective heads parseAdjP
		// claimed on our behalf, or they would stay headless forever.
		for _, g := range groups {
			b.placed[g] = false
		}
		return -1, lo
	}
	head := nouns[len(nouns)-1]
	b.placed[head] = true // caller attaches the head
	if det >= 0 {
		b.attach(det, head, DetLabel)
	}
	for _, g := range groups {
		b.attach(g, head, Amod)
	}
	for _, n := range nouns[:len(nouns)-1] {
		b.attach(n, head, Compound)
	}
	return head, i
}

// parseAdjP parses an adjectival phrase starting at lo: Adv* Adj (Cc Adv*
// Adj)*. Returns (head, end) with head = the FIRST adjective (Stanford
// attaches conjuncts to the first conjunct); (-1, lo) if no adjective.
func (b *builder) parseAdjP(lo, hi int) (int, int) {
	i := lo
	for i < hi && b.tag(i) == lexicon.Adv {
		i++
	}
	if i >= hi || b.tag(i) != lexicon.Adj {
		return -1, lo
	}
	head := i
	b.placed[head] = true // caller attaches the head
	// The leading adverbs.
	for a := lo; a < head; a++ {
		b.attach(a, head, Advmod)
	}
	i++
	// Conjoined adjectives: "fast and exciting", "fast, fun and cheap".
	for i < hi {
		j := i
		var cc = -1
		if j < hi && b.toks[j].Text == "," {
			j++
		}
		if j < hi && b.tag(j) == lexicon.Conj {
			cc = j
			j++
		}
		if cc < 0 && j == i {
			break
		}
		advLo := j
		for j < hi && b.tag(j) == lexicon.Adv {
			j++
		}
		if j >= hi || b.tag(j) != lexicon.Adj {
			break
		}
		// If a noun follows this adjective we are inside an NP and the
		// conjunct is still adjectival ("fast and exciting sport") — that
		// is fine, conj attaches adjective-to-adjective either way.
		conjAdj := j
		b.attach(conjAdj, head, Conj)
		if cc >= 0 {
			b.attach(cc, head, Cc)
		}
		if i < hi && b.toks[i].Text == "," && (cc >= 0 || j > i+1) {
			b.attach(i, head, Punct)
		}
		for a := advLo; a < conjAdj; a++ {
			b.attach(a, conjAdj, Advmod)
		}
		i = j + 1
	}
	return head, i
}

// parsePP parses a prepositional phrase at prep index i, attaching
// prep(head, i) and pobj(i, np). Returns the index after the PP.
func (b *builder) parsePP(i, hi, head int) int {
	b.attach(i, head, Prep)
	j := i + 1
	if j < hi {
		switch b.tag(j) {
		case lexicon.Det, lexicon.Adj, lexicon.Adv, lexicon.Noun, lexicon.Propn, lexicon.Num:
			npHead, end := b.parseNP(j, hi)
			if npHead >= 0 {
				b.attach(npHead, i, Pobj)
				return end
			}
		case lexicon.Pron:
			b.attach(j, i, Pobj)
			return j + 1
		}
	}
	return j
}

package depparse

import (
	"strings"
	"testing"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
)

// splitSentences splits text on fresh buffers.
func splitSentences(text string) []token.Sentence {
	s, _ := token.SplitSentencesInto(nil, nil, text)
	return s
}

func parse(t *testing.T, text string) *Tree {
	t.Helper()
	lex := lexicon.Default()
	sents := splitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("want one sentence for %q, got %d", text, len(sents))
	}
	tagged := pos.New(lex).TagInto(nil, sents[0])
	return New(lex).ParseInto(new(Scratch), tagged)
}

// find returns the index of the first node with the given lower-case text.
func find(t *testing.T, tree *Tree, text string) int {
	t.Helper()
	for i, n := range tree.Nodes {
		if n.Lower() == text {
			return i
		}
	}
	t.Fatalf("token %q not in tree:\n%s", text, tree)
	return -1
}

// wantDep asserts dependency rel(head, child).
func wantDep(t *testing.T, tree *Tree, rel Label, head, child string) {
	t.Helper()
	h, c := find(t, tree, head), find(t, tree, child)
	if tree.Nodes[c].Head != h || tree.Nodes[c].Rel != rel {
		t.Errorf("want %s(%s, %s); got %s(%v, %s)\n%s", rel, head, child,
			tree.Nodes[c].Rel, tree.Nodes[c].Head, child, tree)
	}
}

func wantRoot(t *testing.T, tree *Tree, text string) {
	t.Helper()
	r := find(t, tree, text)
	if tree.Root() != r {
		t.Errorf("want root %q, got %q\n%s", text, tree.Nodes[tree.Root()].Text, tree)
	}
}

func TestParseCopularAdjective(t *testing.T) {
	tree := parse(t, "Chicago is very big.")
	wantRoot(t, tree, "big")
	wantDep(t, tree, Nsubj, "big", "chicago")
	wantDep(t, tree, Cop, "big", "is")
	wantDep(t, tree, Advmod, "big", "very")
}

func TestParseNegatedCopular(t *testing.T) {
	tree := parse(t, "Paris is not big.")
	wantRoot(t, tree, "big")
	wantDep(t, tree, Neg, "big", "not")
	if !tree.IsNegated(find(t, tree, "big")) {
		t.Error("big should be negated")
	}
}

func TestParsePredicateNominal(t *testing.T) {
	// Table 1 row 1: "Snakes are dangerous animals".
	tree := parse(t, "Snakes are dangerous animals.")
	wantRoot(t, tree, "animals")
	wantDep(t, tree, Nsubj, "animals", "snakes")
	wantDep(t, tree, Cop, "animals", "are")
	wantDep(t, tree, Amod, "animals", "dangerous")
}

func TestParseNegatedPredicateNominal(t *testing.T) {
	tree := parse(t, "San Francisco is not a big city.")
	wantRoot(t, tree, "city")
	wantDep(t, tree, Neg, "city", "not")
	wantDep(t, tree, Amod, "city", "big")
	wantDep(t, tree, DetLabel, "city", "a")
	wantDep(t, tree, Compound, "francisco", "san")
	wantDep(t, tree, Nsubj, "city", "francisco")
}

func TestParseConjunction(t *testing.T) {
	// Table 1 row 3: "Soccer is a fast and exciting sport".
	tree := parse(t, "Soccer is a fast and exciting sport.")
	wantRoot(t, tree, "sport")
	wantDep(t, tree, Amod, "sport", "fast")
	wantDep(t, tree, Conj, "fast", "exciting")
	wantDep(t, tree, Cc, "fast", "and")
	wantDep(t, tree, Nsubj, "sport", "soccer")
}

func TestParsePredicateAdjectiveConjunction(t *testing.T) {
	tree := parse(t, "Soccer is fast and exciting.")
	wantRoot(t, tree, "fast")
	wantDep(t, tree, Conj, "fast", "exciting")
	wantDep(t, tree, Cop, "fast", "is")
}

func TestParseFigure5Sentence(t *testing.T) {
	// "I don't think that snakes are never dangerous" — the paper's
	// double-negation example.
	tree := parse(t, "I don't think that snakes are never dangerous.")
	wantRoot(t, tree, "think")
	wantDep(t, tree, Nsubj, "think", "i")
	wantDep(t, tree, Aux, "think", "do")
	wantDep(t, tree, Neg, "think", "n't")
	wantDep(t, tree, Ccomp, "think", "dangerous")
	wantDep(t, tree, Mark, "dangerous", "that")
	wantDep(t, tree, Nsubj, "dangerous", "snakes")
	wantDep(t, tree, Cop, "dangerous", "are")
	wantDep(t, tree, Neg, "dangerous", "never")

	// Negation path: both "dangerous" and "think" are negated.
	dang := find(t, tree, "dangerous")
	path := tree.PathToRoot(dang)
	negCount := 0
	for _, n := range path {
		if tree.IsNegated(n) {
			negCount++
		}
	}
	if negCount != 2 {
		t.Errorf("want 2 negated tokens on path, got %d\n%s", negCount, tree)
	}
}

func TestParsePPAttachesToPredicate(t *testing.T) {
	// "New York is bad for parking" — the non-intrinsic example.
	tree := parse(t, "New York is bad for parking.")
	wantRoot(t, tree, "bad")
	wantDep(t, tree, Prep, "bad", "for")
	wantDep(t, tree, Pobj, "for", "parking")
}

func TestParseAttributiveAmod(t *testing.T) {
	tree := parse(t, "Southern France is warm.")
	wantRoot(t, tree, "warm")
	wantDep(t, tree, Amod, "france", "southern")
	wantDep(t, tree, Nsubj, "warm", "france")
}

func TestParseXcomp(t *testing.T) {
	// Figure 1: "I find kittens cute".
	tree := parse(t, "I find kittens cute.")
	wantRoot(t, tree, "find")
	wantDep(t, tree, Dobj, "find", "kittens")
	wantDep(t, tree, Xcomp, "find", "cute")
}

func TestParseMainVerbClause(t *testing.T) {
	tree := parse(t, "We visited Rome.")
	wantRoot(t, tree, "visited")
	wantDep(t, tree, Nsubj, "visited", "we")
	wantDep(t, tree, Dobj, "visited", "rome")
}

func TestParseOpinionPrefix(t *testing.T) {
	tree := parse(t, "Everyone agrees that Tokyo is hectic.")
	wantRoot(t, tree, "agrees")
	wantDep(t, tree, Ccomp, "agrees", "hectic")
	wantDep(t, tree, Nsubj, "hectic", "tokyo")
	wantDep(t, tree, Cop, "hectic", "is")
}

func TestParseBroadCopula(t *testing.T) {
	tree := parse(t, "Tigers seem dangerous.")
	wantRoot(t, tree, "dangerous")
	wantDep(t, tree, Cop, "dangerous", "seem")
}

func TestParseNeverBetweenCopAndAdj(t *testing.T) {
	tree := parse(t, "Snakes are never cute.")
	wantRoot(t, tree, "cute")
	wantDep(t, tree, Neg, "cute", "never")
}

func TestEveryNodeReachableAndSingleHeaded(t *testing.T) {
	sentences := []string{
		"Chicago is very big.",
		"I don't think that snakes are never dangerous.",
		"Soccer is a fast and exciting sport.",
		"New York is bad for parking.",
		"In my opinion, Rome is not cheap.",
		"The quick brown fox jumps over the lazy dog.",
		"What a day!",
		"Really?",
		"is is is",
		"and and and",
		", , ,",
	}
	for _, s := range sentences {
		tree := parse(t, s)
		if len(tree.Nodes) == 0 {
			continue
		}
		roots := 0
		for i, n := range tree.Nodes {
			if n.Head == -1 {
				roots++
				if i != tree.Root() {
					t.Errorf("%q: node %d has no head but is not root", s, i)
				}
			}
			path := tree.PathToRoot(i)
			if path == nil {
				t.Errorf("%q: cycle detected from node %d\n%s", s, i, tree)
			} else if path[len(path)-1] != tree.Root() {
				t.Errorf("%q: node %d does not reach root", s, i)
			}
		}
		if roots != 1 {
			t.Errorf("%q: %d roots, want 1\n%s", s, roots, tree)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	lex := lexicon.Default()
	tree := New(lex).ParseInto(new(Scratch), nil)
	if tree.Root() != -1 || len(tree.Nodes) != 0 {
		t.Fatalf("empty parse: root=%d nodes=%d", tree.Root(), len(tree.Nodes))
	}
}

func TestTreeAccessors(t *testing.T) {
	tree := parse(t, "Soccer is a fast and exciting sport.")
	sport := find(t, tree, "sport")
	fast := find(t, tree, "fast")
	if got := tree.FirstChildWith(sport, Amod); got != fast {
		t.Errorf("FirstChildWith(sport, amod) = %d, want %d", got, fast)
	}
	if tree.FirstChildWith(sport, Neg) != -1 {
		t.Error("sport should have no neg child")
	}
	if !tree.HasChildWith(fast, Conj) {
		t.Error("fast should have a conj child")
	}
	if got := len(tree.ChildrenWith(sport, Amod)); got != 1 {
		t.Errorf("ChildrenWith(sport, amod) = %d entries, want 1", got)
	}
}

func TestTreeStringContainsDeps(t *testing.T) {
	tree := parse(t, "Rome is big.")
	s := tree.String()
	if !strings.Contains(s, "nsubj") || !strings.Contains(s, "cop") {
		t.Errorf("String() missing dependencies:\n%s", s)
	}
}

func TestParseTripleConjunction(t *testing.T) {
	tree := parse(t, "Soccer is fast, exciting and cheap.")
	wantRoot(t, tree, "fast")
	conjs := tree.ChildrenWith(find(t, tree, "fast"), Conj)
	if len(conjs) != 2 {
		t.Fatalf("conj children = %d, want 2\n%s", len(conjs), tree)
	}
}

func TestParseQuestionDoesNotPanic(t *testing.T) {
	for _, s := range []string{
		"Is Chicago big?",
		"Why is soccer so popular?",
		"Do you think that kittens are cute?",
	} {
		tree := parse(t, s)
		if len(tree.Nodes) == 0 {
			t.Fatalf("%q produced empty tree", s)
		}
		for i := range tree.Nodes {
			if tree.PathToRoot(i) == nil {
				t.Fatalf("%q: cycle from %d", s, i)
			}
		}
	}
}

func TestParseDoubleEmbedding(t *testing.T) {
	// Nested complement clauses: the parser should still produce one root
	// and connect everything.
	tree := parse(t, "I believe that everyone agrees that Chicago is big.")
	wantRoot(t, tree, "believe")
	roots := 0
	for _, n := range tree.Nodes {
		if n.Head == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d\n%s", roots, tree)
	}
}

func TestPathToRootTruncatedTree(t *testing.T) {
	tree := parse(t, "Rome is big.")
	for i := range tree.Nodes {
		path := tree.PathToRoot(i)
		if len(path) == 0 || path[0] != i {
			t.Fatalf("path from %d = %v", i, path)
		}
	}
}

func TestParseAppositive(t *testing.T) {
	tree := parse(t, "San Francisco, a beautiful city, is expensive.")
	wantRoot(t, tree, "expensive")
	wantDep(t, tree, Nsubj, "expensive", "francisco")
	wantDep(t, tree, Appos, "francisco", "city")
	wantDep(t, tree, Amod, "city", "beautiful")
	wantDep(t, tree, DetLabel, "city", "a")
}

func TestParseLeadingPPNotAppositive(t *testing.T) {
	tree := parse(t, "In my opinion, Rome is not cheap.")
	wantRoot(t, tree, "cheap")
	wantDep(t, tree, Nsubj, "cheap", "rome")
	wantDep(t, tree, Neg, "cheap", "not")
}

// Test-side tree walks: the invariants below (and FuzzParse) are stated
// through them; the extractor walks heads inline.

// ChildrenWith returns the children of node i attached with the given label.
func (t *Tree) ChildrenWith(i int, rel Label) []int {
	var out []int
	for _, c := range t.children[i] {
		if t.Nodes[c].Rel == rel {
			out = append(out, c)
		}
	}
	return out
}

// PathToRoot returns the node indices from i (inclusive) up to the root
// (inclusive). Returns nil if a cycle is detected (which would indicate a
// parser bug).
func (t *Tree) PathToRoot(i int) []int {
	var path []int
	for i >= 0 {
		if len(path) > len(t.Nodes) {
			return nil
		}
		path = append(path, i)
		i = t.Nodes[i].Head
	}
	return path
}

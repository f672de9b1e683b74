// Package depparse implements a deterministic rule-based dependency parser
// producing Stanford-style typed dependency trees — the representation the
// Surveyor extraction patterns (Figure 4 of the paper) and the
// negation-path polarity rule (Figure 5) operate on.
//
// The paper consumed a web snapshot pre-annotated by a parser "similar to
// the Stanford parser"; this package is the from-scratch substitute, built
// as a cascade: NP/AdjP chunking, verb-group detection, clause segmentation
// at complementizers, and head attachment with Stanford conventions (the
// predicate, not the copula, heads a copular clause).
package depparse

import (
	"fmt"
	"strings"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
)

// Label is a typed dependency label (Stanford basic-dependency names).
type Label string

// The dependency label inventory.
const (
	RootLabel Label = "root"
	Nsubj     Label = "nsubj"
	Cop       Label = "cop"
	Amod      Label = "amod"
	Advmod    Label = "advmod"
	Neg       Label = "neg"
	DetLabel  Label = "det"
	Conj      Label = "conj"
	Cc        Label = "cc"
	Prep      Label = "prep"
	Pobj      Label = "pobj"
	Ccomp     Label = "ccomp"
	Xcomp     Label = "xcomp"
	Mark      Label = "mark"
	Aux       Label = "aux"
	Dobj      Label = "dobj"
	Compound  Label = "compound"
	Appos     Label = "appos"
	Punct     Label = "punct"
	Dep       Label = "dep" // fallback attachment
)

// Node is one token in a dependency tree.
type Node struct {
	Index int
	Text  string
	Tag   lexicon.Tag
	Head  int   // index of the head node, -1 for the root
	Rel   Label // relation to the head

	// lower caches the lower-cased text, carried over from the token so
	// the extraction hot loop never re-runs strings.ToLower.
	lower string
}

// Lower returns the lower-cased token text.
func (n Node) Lower() string {
	if n.lower != "" {
		return n.lower
	}
	return strings.ToLower(n.Text)
}

// Tree is a dependency tree over one sentence.
type Tree struct {
	Nodes    []Node
	root     int
	children [][]int
}

// Root returns the index of the root node, or -1 for an empty tree.
func (t *Tree) Root() int { return t.root }

// Children returns the child indices of node i in token order.
func (t *Tree) Children(i int) []int { return t.children[i] }

// FirstChildWith returns the first child of node i with the given label,
// or -1 if none exists.
func (t *Tree) FirstChildWith(i int, rel Label) int {
	for _, c := range t.children[i] {
		if t.Nodes[c].Rel == rel {
			return c
		}
	}
	return -1
}

// HasChildWith reports whether node i has a child with the given label.
func (t *Tree) HasChildWith(i int, rel Label) bool {
	return t.FirstChildWith(i, rel) >= 0
}

// IsNegated reports whether node i has a negation child — the per-token
// test of the paper's polarity rule.
func (t *Tree) IsNegated(i int) bool { return t.HasChildWith(i, Neg) }

// String renders the tree one dependency per line, for diagnostics.
func (t *Tree) String() string {
	var b strings.Builder
	for _, n := range t.Nodes {
		headText := "ROOT"
		if n.Head >= 0 {
			headText = t.Nodes[n.Head].Text
		}
		fmt.Fprintf(&b, "%s(%s-%d, %s-%d)\n", n.Rel, headText, n.Head, n.Text, n.Index)
	}
	return b.String()
}

// finalize computes children lists, reusing the tree's existing backing
// slices when it is being refilled through a Scratch.
func (t *Tree) finalize() {
	n := len(t.Nodes)
	if cap(t.children) < n {
		t.children = make([][]int, n)
	} else {
		t.children = t.children[:n]
		for i := range t.children {
			t.children[i] = t.children[i][:0]
		}
	}
	for i := range t.Nodes {
		if h := t.Nodes[i].Head; h >= 0 {
			t.children[h] = append(t.children[h], i)
		}
	}
}

// fillTree (re)populates t from parallel head/rel arrays, reusing t's node
// and child-list backing storage.
func fillTree(t *Tree, tagged []pos.Tagged, head []int, rel []Label, root int) {
	t.root = root
	if cap(t.Nodes) < len(tagged) {
		t.Nodes = make([]Node, len(tagged))
	} else {
		t.Nodes = t.Nodes[:len(tagged)]
	}
	for i := range tagged {
		tg := &tagged[i]
		t.Nodes[i] = Node{Index: i, Text: tg.Text, Tag: tg.Tag,
			Head: head[i], Rel: rel[i], lower: tg.Lower()}
	}
	t.finalize()
}

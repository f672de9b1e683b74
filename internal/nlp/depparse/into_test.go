package depparse

import (
	"reflect"
	"testing"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
)

var intoTexts = []string{
	"Kittens are cute.",
	"San Francisco is a very big city and everyone knows it.",
	"The warm, quiet old town isn't crowded but it is not cheap.",
	"...",
	"Dangerous fast dogs and cats!",
}

// TestParseIntoMatchesParse drives one Scratch through all sample
// sentences twice (so every buffer gets reused at both growing and
// shrinking sizes) and checks each tree against one parsed into a fresh
// Scratch.
func TestParseIntoMatchesParse(t *testing.T) {
	lex := lexicon.Default()
	tg := pos.New(lex)
	p := New(lex)
	sc := new(Scratch)
	for round := 0; round < 2; round++ {
		for _, text := range intoTexts {
			for _, sent := range splitSentences(text) {
				tagged := tg.TagInto(nil, sent)
				want := p.ParseInto(new(Scratch), tagged)
				got := p.ParseInto(sc, tagged)
				assertTreesEqual(t, text, got, want)
			}
		}
	}
}

// assertTreesEqual compares trees structurally: root, nodes, and children
// contents. (Raw DeepEqual would distinguish a fresh tree's nil child
// lists from a reused tree's empty ones.)
func assertTreesEqual(t *testing.T, text string, got, want *Tree) {
	t.Helper()
	if got.Root() != want.Root() {
		t.Fatalf("%q: root %d, want %d", text, got.Root(), want.Root())
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("%q: nodes diverge\ngot  %+v\nwant %+v", text, got.Nodes, want.Nodes)
	}
	for i := range want.Nodes {
		g, w := got.Children(i), want.Children(i)
		if len(g) != len(w) {
			t.Fatalf("%q node %d: %d children, want %d", text, i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%q node %d: children %v, want %v", text, i, g, w)
			}
		}
	}
}

// TestParseIntoEmptySentence pins the degenerate input with a reused
// scratch that previously held a larger tree.
func TestParseIntoEmptySentence(t *testing.T) {
	lex := lexicon.Default()
	tg := pos.New(lex)
	p := New(lex)
	sc := new(Scratch)
	p.ParseInto(sc, tg.TagInto(nil, splitSentences("Kittens are cute.")[0]))
	tree := p.ParseInto(sc, nil)
	if tree.Root() != -1 || len(tree.Nodes) != 0 {
		t.Fatalf("empty parse: root=%d nodes=%d", tree.Root(), len(tree.Nodes))
	}
}

// TestParseIntoDoesNotAllocate pins the parser's steady state: with a warm
// Scratch, sentences with several noun phrases, stacked and conjoined
// adjective groups, degree adverbs and negations parse without touching
// the heap.
func TestParseIntoDoesNotAllocate(t *testing.T) {
	lex := lexicon.Default()
	tg := pos.New(lex)
	p := New(lex)
	sc := new(Scratch)
	for _, text := range []string{
		"The very big old city near the quiet river is not a really cheap and safe place for young families.",
		"In Rome the tired tourists never found the small hotel very clean, quiet or friendly.",
		"San Francisco, a beautiful city, isn't cheap.",
	} {
		tagged := tg.TagInto(nil, splitSentences(text)[0])
		if allocs := testing.AllocsPerRun(100, func() { p.ParseInto(sc, tagged) }); allocs != 0 {
			t.Errorf("%q: ParseInto allocates %v times per parse, want 0", text, allocs)
		}
	}
}

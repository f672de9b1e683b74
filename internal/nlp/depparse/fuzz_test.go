package depparse

import (
	"testing"

	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
)

// FuzzParse checks tree well-formedness on arbitrary text: one node per
// token, a single in-range root, heads in range, and acyclicity from
// every node (PathToRoot returns nil on a cycle — the extractor's
// polarity rule walks that path, so a cycle would be a real bug).
func FuzzParse(f *testing.F) {
	f.Add("I don't think that snakes are never dangerous animals.")
	f.Add("San Francisco, a beautiful city, is big and expensive.")
	f.Add("Everyone agrees that kittens are cute, but spiders seem scary.")
	f.Add("bad for parking . and , or ! not never")
	f.Add("is is is is that that that")
	f.Add("\x00'n't -- . ")
	lex := lexicon.Default()
	tg := pos.New(lex)
	parser := New(lex)
	f.Fuzz(func(t *testing.T, text string) {
		for _, sent := range splitSentences(text) {
			tagged := tg.TagInto(nil, sent)
			tree := parser.ParseInto(new(Scratch), tagged)
			if len(tree.Nodes) != len(tagged) {
				t.Fatalf("tree has %d nodes for %d tokens", len(tree.Nodes), len(tagged))
			}
			if len(tree.Nodes) == 0 {
				continue
			}
			root := tree.Root()
			if root < 0 || root >= len(tree.Nodes) {
				t.Fatalf("root %d out of range for %d nodes (%q)", root, len(tree.Nodes), sent.Text())
			}
			if tree.Nodes[root].Head != -1 {
				t.Fatalf("root node %d has head %d, want -1", root, tree.Nodes[root].Head)
			}
			roots := 0
			for i, n := range tree.Nodes {
				if n.Index != i {
					t.Fatalf("node %d carries index %d", i, n.Index)
				}
				if n.Head < -1 || n.Head >= len(tree.Nodes) || n.Head == i {
					t.Fatalf("node %d has invalid head %d (%q)", i, n.Head, sent.Text())
				}
				if n.Head == -1 {
					roots++
				}
				path := tree.PathToRoot(i)
				if path == nil {
					t.Fatalf("cycle detected from node %d (%q)", i, sent.Text())
				}
				if path[len(path)-1] != root {
					t.Fatalf("path from node %d ends at %d, not the root %d", i, path[len(path)-1], root)
				}
			}
			if roots != 1 {
				t.Fatalf("tree has %d headless nodes, want exactly 1 (%q)", roots, sent.Text())
			}
		}
	})
}

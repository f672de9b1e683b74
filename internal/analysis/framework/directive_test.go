package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
}

func TestCollectAllows(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:allow detmap commutative fold
var a = 1

var b = 2 //lint:allow detrand seeded upstream

//lint:allow detmap
var c = 3

//lint:allow nosuch because reasons
var d = 4
`)
	known := map[string]bool{"detmap": true, "detrand": true}
	allows, problems := CollectAllows(pkg, known)
	if len(allows) != 2 {
		t.Fatalf("got %d allows, want 2", len(allows))
	}
	if allows[0].Analyzer != "detmap" || allows[0].Reason != "commutative fold" {
		t.Errorf("allow[0] = %+v", allows[0])
	}
	if allows[1].Analyzer != "detrand" || allows[1].Reason != "seeded upstream" {
		t.Errorf("allow[1] = %+v", allows[1])
	}
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want 2 (missing reason, unknown analyzer): %v", len(problems), problems)
	}
	if !strings.Contains(problems[0].Message, "justification") {
		t.Errorf("problems[0] = %q, want missing-justification", problems[0].Message)
	}
	if !strings.Contains(problems[1].Message, "unknown analyzer") {
		t.Errorf("problems[1] = %q, want unknown-analyzer", problems[1].Message)
	}
}

func TestCollectAllowsMissingName(t *testing.T) {
	pkg := parsePkg(t, `package p

//lint:allow
var a = 1
`)
	allows, problems := CollectAllows(pkg, map[string]bool{"detmap": true})
	if len(allows) != 0 {
		t.Fatalf("got %d allows, want 0", len(allows))
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Message, "missing analyzer name") {
		t.Fatalf("problems = %v, want one missing-analyzer-name", problems)
	}
}

// TestAllowEndToEnd drives a toy analyzer through the full directive flow:
// report, collect, suppress — the same path both drivers use — without
// depending on any real analyzer's semantics.
func TestAllowEndToEnd(t *testing.T) {
	pkg := parsePkg(t, `package p

var suppressed = 1 //lint:allow toy justified here

var reported = 2
`)
	toy := &Analyzer{
		Name: "toy",
		Doc:  "flags every package-level var",
		Run: func(pass *Pass) (any, error) {
			for _, file := range pass.Files {
				for _, d := range file.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							pass.Reportf(vs.Pos(), "var %s", vs.Names[0].Name)
						}
					}
				}
			}
			return nil, nil
		},
	}
	findings, err := Run(&Package{Path: pkg.Path, Fset: pkg.Fset, Files: pkg.Files}, []*Analyzer{toy})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("toy analyzer produced %d findings, want 2", len(findings))
	}
	allows, problems := CollectAllows(pkg, map[string]bool{"toy": true})
	if len(allows) != 1 || len(problems) != 0 {
		t.Fatalf("CollectAllows = %v, %v; want one clean allow", allows, problems)
	}
	kept, unused := Suppress(findings, allows)
	if len(unused) != 0 {
		t.Fatalf("the allow suppressed a finding yet reads as unused: %v", unused)
	}
	if len(kept) != 1 || !strings.Contains(kept[0].Message, "reported") {
		t.Fatalf("kept = %v, want only the undirected finding", kept)
	}
}

func TestSuppress(t *testing.T) {
	pos := func(line int) token.Position { return token.Position{Filename: "f.go", Line: line} }
	findings := []Finding{
		{Analyzer: "detmap", Pos: pos(10), Message: "same line"},
		{Analyzer: "detmap", Pos: pos(21), Message: "line below directive"},
		{Analyzer: "detrand", Pos: pos(10), Message: "other analyzer, not suppressed"},
		{Analyzer: "detmap", Pos: pos(40), Message: "no directive"},
	}
	allows := []*Allow{
		{Pos: pos(10), Analyzer: "detmap", Reason: "r"},
		{Pos: pos(20), Analyzer: "detmap", Reason: "r"},
		{Pos: pos(30), Analyzer: "detmap", Reason: "stale"},
	}
	kept, problems := Suppress(findings, allows)
	if len(kept) != 2 {
		t.Fatalf("kept %d findings, want 2: %v", len(kept), kept)
	}
	if kept[0].Message != "other analyzer, not suppressed" || kept[1].Message != "no directive" {
		t.Errorf("kept = %v", kept)
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Message, "unused") {
		t.Fatalf("problems = %v, want one unused-allow", problems)
	}
	if problems[0].Pos.Line != 30 {
		t.Errorf("unused allow reported at line %d, want 30", problems[0].Pos.Line)
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Analyzer: "b", Pos: token.Position{Filename: "b.go", Line: 1}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 9}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 2}},
		{Analyzer: "z", Pos: token.Position{Filename: "a.go", Line: 2}},
	}
	SortFindings(fs)
	got := []string{}
	for _, f := range fs {
		got = append(got, f.Pos.Filename, f.Analyzer)
	}
	want := []string{"a.go", "a", "a.go", "z", "a.go", "a", "b.go", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// Obj reports whether the object itself is tainted.
func (t *Taint) Obj(o types.Object) bool { return o != nil && t.tainted[o] }

// typecheckFile parses and type-checks a single import-free file.
func typecheckFile(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "df.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return f, info
}

func funcDecl(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fn
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// localVar finds the variable named name defined inside fn.
func localVar(t *testing.T, info *types.Info, fn *ast.FuncDecl, name string) types.Object {
	t.Helper()
	var obj types.Object
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if o := info.Defs[id]; o != nil {
				obj = o
			}
		}
		return true
	})
	if obj == nil {
		t.Fatalf("variable %s not found in %s", name, fn.Name.Name)
	}
	return obj
}

// srcCalls matches calls to the snippet's designated source function.
func srcCalls(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "src"
}

func TestTaintPropagation(t *testing.T) {
	f, info := typecheckFile(t, `package p

func src() int { return 1 }

func f() {
	a := src()
	b := a + 1
	c := min(a, 10)
	d := len(make([]int, a))
	e := max(a, 2)
	g := a > 5
	h := b
	_, _, _, _, _ = c, d, e, g, h
}
`)
	fn := funcDecl(t, f, "f")
	taint := NewTaint(fn, TaintConfig{Info: info, Source: srcCalls})
	want := map[string]bool{
		"a": true,  // direct source result
		"b": true,  // arithmetic on tainted
		"c": false, // min with a clean bound is bounded
		"d": false, // len of materialized data is bounded
		"e": true,  // max keeps the tainted magnitude
		"g": false, // comparisons yield booleans, not sizes
		"h": true,  // copy of tainted
	}
	for name, wantTainted := range want {
		if got := taint.Obj(localVar(t, info, fn, name)); got != wantTainted {
			t.Errorf("taint of %s = %v, want %v", name, got, wantTainted)
		}
	}
}

func TestTaintIsSticky(t *testing.T) {
	f, info := typecheckFile(t, `package p

func src() int { return 1 }

func g() {
	a := src()
	a = 0
	_ = a
}
`)
	fn := funcDecl(t, f, "g")
	taint := NewTaint(fn, TaintConfig{Info: info, Source: srcCalls})
	if !taint.Obj(localVar(t, info, fn, "a")) {
		t.Error("reassignment cleared taint; the fixpoint must be monotone")
	}
}

func TestTaintSeedsAndPropagateCall(t *testing.T) {
	f, info := typecheckFile(t, `package p

func deriv(x int) int { return x }

func h(p int) {
	q := deriv(p)
	r := deriv(3)
	_, _ = q, r
}
`)
	fn := funcDecl(t, f, "h")
	seed := info.Defs[fn.Type.Params.List[0].Names[0]]
	taint := NewTaint(fn, TaintConfig{
		Info:  info,
		Seeds: []types.Object{seed},
		PropagateCall: func(call *ast.CallExpr) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && id.Name == "deriv"
		},
	})
	if !taint.Obj(localVar(t, info, fn, "q")) {
		t.Error("q = deriv(seeded p) should be tainted")
	}
	if taint.Obj(localVar(t, info, fn, "r")) {
		t.Error("r = deriv(3) should be clean: propagation needs a tainted argument")
	}
}

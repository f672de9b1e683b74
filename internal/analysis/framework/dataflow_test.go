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

func TestTaintsArgsInPlace(t *testing.T) {
	f, info := typecheckFile(t, `package p

func fill(b []byte) {}

func k() {
	buf := make([]byte, 4)
	n := buf[0]
	fill(buf)
	m := buf[0]
	_, _ = n, m
}
`)
	fn := funcDecl(t, f, "k")
	taint := NewTaint(fn, TaintConfig{
		Info: info,
		TaintsArgs: func(call *ast.CallExpr) []ast.Expr {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "fill" {
				return call.Args
			}
			return nil
		},
	})
	if !taint.Obj(localVar(t, info, fn, "buf")) {
		t.Error("fill(buf) should taint buf in place")
	}
	// Sticky taint is flow-insensitive by design: once buf is tainted,
	// every read of it is, regardless of statement order.
	if !taint.Obj(localVar(t, info, fn, "n")) || !taint.Obj(localVar(t, info, fn, "m")) {
		t.Error("reads of tainted buf should be tainted")
	}
}

// boundedAtLastReturn runs the taint pass over the named function and asks
// BoundedAt about variable n at the function's last return statement.
func boundedAtLastReturn(t *testing.T, f *ast.File, info *types.Info, name string, validates func(*ast.CallExpr, types.Object) bool) (guarded, named bool) {
	t.Helper()
	fn := funcDecl(t, f, name)
	taint := NewTaint(fn, TaintConfig{Info: info, Source: srcCalls})
	obj := localVar(t, info, fn, "n")
	if !taint.Obj(obj) {
		t.Fatalf("%s: n is not tainted; test is vacuous", name)
	}
	var at ast.Node
	ast.Inspect(fn, func(nd ast.Node) bool {
		if r, ok := nd.(*ast.ReturnStmt); ok {
			at = r
		}
		return true
	})
	return taint.BoundedAt(fn, at, obj, validates)
}

func TestBoundedAt(t *testing.T) {
	f, info := typecheckFile(t, `package p

const limit = 100

func src() int { return 1 }

func check(n int) bool { return n < limit }

func terminating() int {
	n := src()
	if n > limit {
		return 0
	}
	return n
}

func literalGuard() int {
	n := src()
	if n > 100 {
		return 0
	}
	return n
}

func enclosing() int {
	m := src()
	if m < limit {
		n := m
		return n
	}
	return 0
}

func unguarded() int {
	n := src()
	return n
}

func nonTerminating() int {
	n := src()
	if n > limit {
		n = 0
	}
	return n
}

func taintedLimit() int {
	n := src()
	m := src()
	if n > m {
		return 0
	}
	return n
}

func validated() int {
	n := src()
	if !check(n) {
		return 0
	}
	return n
}
`)
	validates := func(call *ast.CallExpr, obj types.Object) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "check" && len(call.Args) == 1 && exprUsesObj(info, call.Args[0], obj)
	}
	cases := []struct {
		fn             string
		guarded, named bool
		validates      func(*ast.CallExpr, types.Object) bool
	}{
		{"terminating", true, true, nil},
		{"literalGuard", true, false, nil}, // guarded, but the limit is a bare literal
		{"unguarded", false, false, nil},
		{"nonTerminating", false, false, nil}, // guard body falls through: not a guard
		{"taintedLimit", false, false, nil},   // the limit itself derives from input
		{"validated", true, true, validates},
	}
	for _, c := range cases {
		guarded, named := boundedAtLastReturn(t, f, info, c.fn, c.validates)
		if guarded != c.guarded || named != c.named {
			t.Errorf("%s: BoundedAt = (%v, %v), want (%v, %v)", c.fn, guarded, named, c.guarded, c.named)
		}
	}
}

func TestBoundedAtEnclosing(t *testing.T) {
	f, info := typecheckFile(t, `package p

const limit = 100

func src() int { return 1 }

func enclosing() int {
	n := src()
	if n < limit {
		return n
	}
	return 0
}
`)
	fn := funcDecl(t, f, "enclosing")
	taint := NewTaint(fn, TaintConfig{Info: info, Source: srcCalls})
	obj := localVar(t, info, fn, "n")
	var at ast.Node
	ast.Inspect(fn, func(nd ast.Node) bool {
		if r, ok := nd.(*ast.ReturnStmt); ok && at == nil {
			at = r // the `return n` inside the if body
		}
		return true
	})
	guarded, named := taint.BoundedAt(fn, at, obj, nil)
	if !guarded || !named {
		t.Errorf("enclosing if guard: BoundedAt = (%v, %v), want (true, true)", guarded, named)
	}
}

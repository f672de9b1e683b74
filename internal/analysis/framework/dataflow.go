package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the framework's intra-procedural dataflow engine: a taint
// pass answering "does this value derive from a designated source?". It
// is deliberately approximate in the direction a linter wants: taint is
// *sticky* (an object once tainted stays tainted — a monotone merge of
// every reaching definition, so reassignment never hides provenance).
// Analyzers that need kill semantics — e.g. "the error was wrapped before
// this return" — refine on top at report time.

// A TaintConfig tells the engine what counts as a source and how taint
// flows through calls. All predicate fields are optional.
type TaintConfig struct {
	// Info is the type information for the enclosing package. Required.
	Info *types.Info

	// Source reports whether the results of a call are tainted (e.g. a
	// call returning an error). Calls not matched by Source or
	// PropagateCall return clean values.
	Source func(call *ast.CallExpr) bool

	// PropagateCall reports calls whose results are tainted when any
	// argument is (e.g. context.WithCancel for ctx derivation). Unknown
	// calls do NOT propagate: a tainted argument to an arbitrary
	// function does not taint its results.
	PropagateCall func(call *ast.CallExpr) bool

	// Seeds are objects tainted before the fixpoint starts (e.g. a
	// function's context parameter).
	Seeds []types.Object

	// NoCompositeTaint, when set, keeps composite literals clean even
	// when an element is tainted. errflow sets it: wrapping an error in
	// a typed struct *is* the remedy, so the wrapper must come out
	// clean.
	NoCompositeTaint bool
}

// A Taint is the result of running the taint fixpoint over one function
// body.
type Taint struct {
	cfg     TaintConfig
	tainted map[types.Object]bool
}

// NewTaint runs the sticky-taint fixpoint over fn (typically a
// *ast.FuncDecl or its body): repeatedly sweep every assignment, short
// variable declaration, var spec, and range statement, marking left-hand
// objects whose right-hand side is tainted, until the tainted set stops
// growing. Taint is never removed, so the result over-approximates every
// execution order.
func NewTaint(fn ast.Node, cfg TaintConfig) *Taint {
	t := &Taint{cfg: cfg, tainted: map[types.Object]bool{}}
	for _, o := range cfg.Seeds {
		if o != nil {
			t.tainted[o] = true
		}
	}
	for {
		before := len(t.tainted)
		t.sweep(fn)
		if len(t.tainted) == before {
			return t
		}
	}
}

func (t *Taint) sweep(fn ast.Node) {
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			t.assign(n)
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var rhs ast.Expr
				switch {
				case len(n.Values) == len(n.Names):
					rhs = n.Values[i]
				case len(n.Values) == 1:
					rhs = n.Values[0]
				}
				if rhs != nil && t.Expr(rhs) {
					t.markObj(t.identObj(name))
				}
			}
		case *ast.RangeStmt:
			if n.X != nil && t.Expr(n.X) {
				t.markExpr(n.Key)
				t.markExpr(n.Value)
			}
		}
		return true
	})
}

func (t *Taint) assign(n *ast.AssignStmt) {
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Lhs {
			tainted := t.Expr(n.Rhs[i])
			// Op-assigns (+=, |=, ...) keep the left side's own taint.
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				tainted = tainted || t.Expr(n.Lhs[i])
			}
			if tainted {
				t.markExpr(n.Lhs[i])
			}
		}
		return
	}
	// a, b := f() — a multi-value source taints every binding.
	if len(n.Rhs) == 1 && t.Expr(n.Rhs[0]) {
		for _, l := range n.Lhs {
			t.markExpr(l)
		}
	}
}

// Expr reports whether the expression's value derives from a source.
func (t *Taint) Expr(e ast.Expr) bool {
	if e == nil {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return t.tainted[t.identObj(e)]
	case *ast.ParenExpr:
		return t.Expr(e.X)
	case *ast.UnaryExpr:
		return t.Expr(e.X)
	case *ast.StarExpr:
		return t.Expr(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			// Comparisons yield booleans, not sizes or payloads.
			return false
		}
		return t.Expr(e.X) || t.Expr(e.Y)
	case *ast.IndexExpr:
		return t.Expr(e.X)
	case *ast.SliceExpr:
		return t.Expr(e.X)
	case *ast.SelectorExpr:
		return t.Expr(e.X)
	case *ast.TypeAssertExpr:
		return t.Expr(e.X)
	case *ast.KeyValueExpr:
		return t.Expr(e.Value)
	case *ast.CompositeLit:
		if t.cfg.NoCompositeTaint {
			return false
		}
		for _, el := range e.Elts {
			if t.Expr(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return t.call(e)
	}
	return false
}

func (t *Taint) call(call *ast.CallExpr) bool {
	// Conversions look through to the operand.
	if tv, ok := t.cfg.Info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && t.Expr(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := t.cfg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				// The length of materialized data is bounded by the
				// allocation that produced it — never tainted.
				return false
			case "min":
				// min(tainted, LIMIT) is bounded by LIMIT: clean as soon
				// as any argument is clean.
				for _, a := range call.Args {
					if !t.Expr(a) {
						return false
					}
				}
				return len(call.Args) > 0
			case "max", "append":
				for _, a := range call.Args {
					if t.Expr(a) {
						return true
					}
				}
				return false
			}
			return false
		}
	}
	if t.cfg.Source != nil && t.cfg.Source(call) {
		return true
	}
	if t.cfg.PropagateCall != nil && t.cfg.PropagateCall(call) {
		for _, a := range call.Args {
			if t.Expr(a) {
				return true
			}
		}
	}
	return false
}

func (t *Taint) markExpr(e ast.Expr) {
	if e == nil {
		return
	}
	// x, x.f, x[i], *x all taint the root object x.
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			t.markObj(t.identObj(x))
			return
		default:
			return
		}
	}
}

func (t *Taint) markObj(o types.Object) {
	if o != nil {
		t.tainted[o] = true
	}
}

func (t *Taint) identObj(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if o := t.cfg.Info.Defs[id]; o != nil {
		return o
	}
	return t.cfg.Info.Uses[id]
}

package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the framework's intra-procedural dataflow engine: a taint
// pass answering "does this value derive from a designated source?" and a
// dominance-flavored guard query answering "is this value bounds-checked
// against a limit before this program point?". Both are deliberately
// approximate in the direction a linter wants: taint is *sticky* (an
// object once tainted stays tainted — a monotone merge of every reaching
// definition, so reassignment never hides provenance), and guard lookup
// is lexical (a check textually before the use, or an enclosing
// conditional, counts). Analyzers that need kill semantics — e.g. "the
// error was wrapped before this return" — refine on top at report time.

// A TaintConfig tells the engine what counts as a source and how taint
// flows through calls. All predicate fields are optional.
type TaintConfig struct {
	// Info is the type information for the enclosing package. Required.
	Info *types.Info

	// Source reports whether the results of a call are tainted (e.g. a
	// varint decode, or a call to a function carrying a DecodedSource
	// fact). Calls not matched by Source or PropagateCall return clean
	// values.
	Source func(call *ast.CallExpr) bool

	// TaintsArgs returns the argument expressions a call taints in
	// place — io.ReadFull(r, buf) fills buf with input bytes.
	TaintsArgs func(call *ast.CallExpr) []ast.Expr

	// SourceExpr marks non-call source expressions, e.g. a read of a
	// decoder's internal []byte field.
	SourceExpr func(e ast.Expr) bool

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
// variable declaration, var spec, range statement, and in-place tainting
// call, marking left-hand objects whose right-hand side is tainted,
// until the tainted set stops growing. Taint is never removed, so the
// result over-approximates every execution order.
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
		case *ast.CallExpr:
			if t.cfg.TaintsArgs != nil {
				for _, arg := range t.cfg.TaintsArgs(n) {
					t.markExpr(arg)
				}
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
	if t.cfg.SourceExpr != nil && t.cfg.SourceExpr(e) {
		return true
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

// TaintedObjs returns the distinct tainted objects referenced inside e,
// in source order — the handles a guard query needs.
func (t *Taint) TaintedObjs(e ast.Expr) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if o := t.identObj(id); o != nil && t.tainted[o] && !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
		return true
	})
	return out
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

// BoundedAt reports whether obj is bounds-checked against an upper limit
// before (or around) the program point `at` inside fn, and whether that
// limit involves a *named* constant, variable, or function rather than a
// bare literal. Three guard shapes count:
//
//   - a terminating if lexically before `at` whose condition compares
//     obj above a clean limit and whose body ends in return/panic/break/
//     continue (`if n > MaxFrameBytes { return ... }`);
//   - an enclosing if whose condition bounds obj below a clean limit
//     (`if n <= MaxFrameBytes { buf := make(..., n) }`);
//   - a statement or if-header lexically before `at` containing a call
//     the validates predicate accepts for obj — the hook through which
//     analyzers plug in cross-package ValidatesParam facts; such a
//     guard is considered named (the callee is the name).
func (t *Taint) BoundedAt(fn ast.Node, at ast.Node, obj types.Object, validates func(call *ast.CallExpr, obj types.Object) bool) (guarded, named bool) {
	ast.Inspect(fn, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		encloses := ifs.Body.Pos() <= at.Pos() && at.End() <= ifs.Body.End()
		precedes := ifs.End() <= at.Pos()
		if precedes && terminates(ifs.Body) {
			if found, byName := t.boundCmp(ifs.Cond, obj, true); found {
				guarded = true
				named = named || byName
			}
			if validates != nil && containsValidatingCall(ifs, obj, validates) {
				guarded, named = true, true
			}
		}
		if encloses {
			if found, byName := t.boundCmp(ifs.Cond, obj, false); found {
				guarded = true
				named = named || byName
			}
		}
		return true
	})
	if !guarded && validates != nil {
		// A bare validating call statement (`mustFit(n)`-style) before
		// `at` also guards.
		ast.Inspect(fn, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok || es.End() > at.Pos() {
				return true
			}
			if call, ok := es.X.(*ast.CallExpr); ok && validates(call, obj) {
				guarded, named = true, true
			}
			return true
		})
	}
	return guarded, named
}

// boundCmp searches cond for a comparison establishing an upper bound on
// obj against an untainted limit. upperExit selects the orientation: a
// terminating guard exits when obj is *too big* (obj > limit), an
// enclosing guard runs its body when obj is *small enough* (obj < limit).
func (t *Taint) boundCmp(cond ast.Expr, obj types.Object, upperExit bool) (found, named bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var limit ast.Expr
		switch b.Op {
		case token.GTR, token.GEQ:
			if upperExit && exprUsesObj(t.cfg.Info, b.X, obj) {
				limit = b.Y // `obj > limit` exits
			} else if !upperExit && exprUsesObj(t.cfg.Info, b.Y, obj) {
				limit = b.X // `limit > obj` encloses
			}
		case token.LSS, token.LEQ:
			if upperExit && exprUsesObj(t.cfg.Info, b.Y, obj) {
				limit = b.X // `limit < obj` exits
			} else if !upperExit && exprUsesObj(t.cfg.Info, b.X, obj) {
				limit = b.Y // `obj < limit` encloses
			}
		default:
			return true
		}
		if limit == nil || exprUsesObj(t.cfg.Info, limit, obj) || t.Expr(limit) {
			return true
		}
		found = true
		named = named || hasNamedIdent(t.cfg.Info, limit)
		return true
	})
	return found, named
}

// exprUsesObj reports whether e mentions obj (through parens,
// conversions, selectors, or arithmetic).
func exprUsesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	if e == nil || obj == nil {
		return false
	}
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				used = true
			}
		}
		return !used
	})
	return used
}

// hasNamedIdent reports whether e mentions a named constant, variable,
// or function — the "named limit" requirement: `n > maxDocs` reads,
// `n > 1<<28` does not.
func hasNamedIdent(info *types.Info, e ast.Expr) bool {
	named := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch info.Uses[id].(type) {
		case *types.Const, *types.Var, *types.Func:
			named = true
		}
		return !named
	})
	return named
}

func containsValidatingCall(n ast.Node, obj types.Object, validates func(*ast.CallExpr, types.Object) bool) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok && validates(call, obj) {
			found = true
		}
		return !found
	})
	return found
}

// terminates reports whether the block always transfers control away:
// its last statement is a return, branch (break/continue/goto), panic,
// or an os.Exit-style call.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Exit" || fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf"
			}
		}
	case *ast.BlockStmt:
		return terminates(last)
	}
	return false
}

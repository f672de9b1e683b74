// Package allocbound defines an analyzer enforcing PR 5–7's fail-clean
// decoding rule statically: in the codec and transport packages
// (internal/wire, internal/dist, internal/obs), every make and
// every loop-driven append whose size derives from decoded input must be
// dominated by a bound check against a *named* limit before the
// allocation happens. This is exactly the bug class the wire and
// dist fuzz targets catch dynamically — a length-prefixed frame
// claiming 2^60 elements must be rejected by comparing against
// MaxFrameBytes-style constants, not discovered at OOM time.
//
// "Derives from decoded input" is answered by the framework's taint
// pass. Sources are the encoding/binary varint readers, io.ReadFull-
// style calls that fill a caller buffer, reads of a decoder's internal
// []byte buffer, and — via cross-package DecodedSource facts — calls to
// any function whose results were found to be decoded-derived when *its*
// package was analyzed. That last part is what lets internal/dist, which
// contains no raw decoding itself, see that framing.(*Decoder).Uvarint
// yields attacker-controlled numbers.
//
// A bound check guards an allocation when a terminating if compares the
// size above a limit (`if n > MaxFrameBytes { return ... }`), when an
// enclosing if bounds it below one, or when a function carrying a
// ValidatesParam fact was called on it. min(n, limit) at the use site is
// equally safe and needs no guard at all. Guards against bare literals
// are flagged separately: name the limit.
package allocbound

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/critical"
	"repro/internal/analysis/framework"
)

// Analyzer is the allocbound analyzer.
var Analyzer = &framework.Analyzer{
	Name: "allocbound",
	Doc: "requires decoded-input-derived allocation sizes to be bounds-checked " +
		"against a named limit before make/append in codec and transport packages",
	Run:       run,
	FactTypes: []framework.Fact{new(DecodedSource), new(ValidatesParam)},
}

// DecodedSource marks a function or method whose results derive from
// decoded input bytes — calling it is a taint source in every importing
// package.
type DecodedSource struct{}

// AFact marks DecodedSource as a fact type.
func (*DecodedSource) AFact() {}

// ValidatesParam marks a function that bounds-checks its Param'th
// parameter (0-based) against a named limit and terminates on overflow —
// calling it on a decoded size counts as the size's guard.
type ValidatesParam struct {
	Param int
}

// AFact marks ValidatesParam as a fact type.
func (*ValidatesParam) AFact() {}

func run(pass *framework.Pass) (any, error) {
	if !critical.AllocBound(pass.Pkg.Path()) {
		return nil, nil
	}
	a := &analysis{pass: pass, localSources: map[*types.Func]bool{}}
	a.computeFacts()
	a.checkAllocs()
	return nil, nil
}

type analysis struct {
	pass *framework.Pass
	// localSources holds this package's decoded-source functions as the
	// fixpoint discovers them (a function returning another source's
	// result is itself a source).
	localSources map[*types.Func]bool
}

// funcDecls yields every function declaration in the package outside
// _test.go files (fuzz targets feed decoders hostile input on purpose).
func (a *analysis) funcDecls() []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, file := range a.pass.Files {
		pos := a.pass.Fset.Position(file.Pos())
		if isTestFile(pos.Filename) {
			continue
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	return decls
}

func isTestFile(name string) bool {
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}

// computeFacts runs the package-level fixpoint: a function whose return
// values are tainted is a DecodedSource; a function that bounds-checks a
// parameter against a named limit ValidatesParam. Both are exported for
// importing packages.
func (a *analysis) computeFacts() {
	decls := a.funcDecls()
	for {
		grew := false
		for _, fd := range decls {
			fn, ok := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || a.localSources[fn] {
				continue
			}
			taint := a.taintFor(fd)
			returnsTaint := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, r := range ret.Results {
					if taint.Expr(r) {
						returnsTaint = true
					}
				}
				return true
			})
			if returnsTaint {
				a.localSources[fn] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	for fn := range a.localSources {
		a.pass.ExportObjectFact(fn, &DecodedSource{})
	}
	for _, fd := range decls {
		fn, ok := a.pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		if i, ok := a.validatedParam(fd); ok {
			a.pass.ExportObjectFact(fn, &ValidatesParam{Param: i})
		}
	}
}

// validatedParam reports the first parameter the function bounds-checks
// against a named limit with a terminating branch.
func (a *analysis) validatedParam(fd *ast.FuncDecl) (int, bool) {
	if fd.Type.Params == nil {
		return 0, false
	}
	taint := a.taintFor(fd)
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := a.pass.TypesInfo.Defs[name]
			if obj != nil && isIntish(obj.Type()) {
				if guarded, named := taint.BoundedAt(fd.Body, lastPosOf(fd.Body), obj, nil); guarded && named {
					return i, true
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return 0, false
}

// lastPosOf returns a node standing for "the end of the body", so
// BoundedAt accepts any guard inside it.
func lastPosOf(b *ast.BlockStmt) ast.Node { return endNode{b} }

type endNode struct{ b *ast.BlockStmt }

func (e endNode) Pos() token.Pos { return e.b.End() }
func (e endNode) End() token.Pos { return e.b.End() }

func isIntish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// taintFor builds the taint pass for one function: decoded-byte sources
// plus this package's and imported DecodedSource facts.
func (a *analysis) taintFor(fd *ast.FuncDecl) *framework.Taint {
	info := a.pass.TypesInfo
	var recv types.Object
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recv = info.Defs[fd.Recv.List[0].Names[0]]
	}
	return framework.NewTaint(fd, framework.TaintConfig{
		Info: info,
		Source: func(call *ast.CallExpr) bool {
			fn := framework.CalleeFunc(info, call)
			if fn == nil {
				return false
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
				switch fn.Name() {
				case "Uvarint", "Varint", "ReadUvarint", "ReadVarint":
					return true
				}
			}
			if a.localSources[fn] {
				return true
			}
			return a.pass.ImportObjectFact(fn, &DecodedSource{})
		},
		TaintsArgs: func(call *ast.CallExpr) []ast.Expr {
			fn := framework.CalleeFunc(info, call)
			if fn == nil {
				return nil
			}
			// io.ReadFull(r, buf) / io.ReadAtLeast(r, buf, n) fill buf
			// with input bytes; r.Read(buf) likewise.
			if fn.Pkg() != nil && fn.Pkg().Path() == "io" && (fn.Name() == "ReadFull" || fn.Name() == "ReadAtLeast") {
				if len(call.Args) >= 2 {
					return call.Args[1:2]
				}
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && fn.Name() == "Read" {
				if len(call.Args) == 1 {
					return call.Args[:1]
				}
			}
			return nil
		},
		SourceExpr: func(e ast.Expr) bool {
			// A read of the decoder's own []byte buffer (d.buf) is raw
			// input.
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || recv == nil {
				return false
			}
			if framework.RootIdentObj(info, sel.X) != recv {
				return false
			}
			tv, ok := info.Types[e]
			if !ok {
				return false
			}
			return isByteSlice(tv.Type)
		},
	})
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// checkAllocs walks every function flagging unguarded tainted-size
// allocations: make calls and loops that append under a tainted bound.
func (a *analysis) checkAllocs() {
	info := a.pass.TypesInfo
	for _, fd := range a.funcDecls() {
		taint := a.taintFor(fd)
		validates := func(call *ast.CallExpr, obj types.Object) bool {
			fn := framework.CalleeFunc(info, call)
			if fn == nil {
				return false
			}
			// Same-package ValidatesParam facts were exported during
			// computeFacts, so one store lookup covers both local and
			// imported validators.
			var v ValidatesParam
			if a.pass.ImportObjectFact(fn, &v) && v.Param < len(call.Args) {
				return framework.RootIdentObj(info, call.Args[v.Param]) == obj
			}
			return false
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(n.Args) > 1 {
						for _, size := range n.Args[1:] {
							a.checkSize(fd, taint, n, size, validates)
						}
					}
				}
			case *ast.ForStmt:
				// `for i < n { ...append/make... }` under a tainted n
				// grows memory proportional to the decoded number.
				if n.Cond != nil && containsGrowth(info, n.Body) {
					a.checkLoopBound(fd, taint, n, validates)
				}
			}
			return true
		})
	}
}

// checkSize reports a make whose size expression is tainted and not
// guarded.
func (a *analysis) checkSize(fd *ast.FuncDecl, taint *framework.Taint, at ast.Node, size ast.Expr, validates func(*ast.CallExpr, types.Object) bool) {
	if !taint.Expr(size) {
		return
	}
	objs := intObjs(taint.TaintedObjs(size))
	if len(objs) == 0 {
		a.pass.Reportf(at.Pos(),
			"allocation sized directly from decoded input; bind the size to a variable and compare it against a named limit first")
		return
	}
	a.requireGuard(fd, taint, at, objs, validates,
		"allocation size %q derives from decoded input")
}

// checkLoopBound reports a growth loop whose bound is tainted and not
// guarded.
func (a *analysis) checkLoopBound(fd *ast.FuncDecl, taint *framework.Taint, loop *ast.ForStmt, validates func(*ast.CallExpr, types.Object) bool) {
	// Only integer-typed tainted objects are loop bounds — a tainted
	// []byte mentioned under len() is bounded by its own allocation.
	objs := intObjs(taint.TaintedObjs(loop.Cond))
	if len(objs) == 0 {
		return
	}
	a.requireGuard(fd, taint, loop, objs, validates,
		"loop bound %q derives from decoded input and the loop grows a slice")
}

func (a *analysis) requireGuard(fd *ast.FuncDecl, taint *framework.Taint, at ast.Node, objs []types.Object, validates func(*ast.CallExpr, types.Object) bool, what string) {
	anyGuarded, anyNamed := false, false
	for _, obj := range objs {
		guarded, named := taint.BoundedAt(fd, at, obj, validates)
		if guarded {
			anyGuarded = true
		}
		if named {
			anyNamed = true
		}
	}
	name := objs[0].Name()
	switch {
	case anyGuarded && anyNamed:
		return
	case anyGuarded:
		a.pass.Reportf(at.Pos(),
			what+" and is bounds-checked only against a bare literal; name the limit (a const the reader can audit)", name)
	default:
		a.pass.Reportf(at.Pos(),
			what+" without a dominating bound check; compare it against a named limit (or min-cap it) before allocating", name)
	}
}

// intObjs filters to integer-typed objects — the only ones that can be
// sizes or bounds.
func intObjs(objs []types.Object) []types.Object {
	var out []types.Object
	for _, o := range objs {
		if isIntish(o.Type()) {
			out = append(out, o)
		}
	}
	return out
}

// containsGrowth reports whether the block contains an append call or a
// make call.
func containsGrowth(info *types.Info, b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if bi, ok := info.Uses[id].(*types.Builtin); ok && (bi.Name() == "append" || bi.Name() == "make") {
				found = true
			}
		}
		return !found
	})
	return found
}

// Package ctxflow defines an analyzer enforcing PR 5's cancellation
// discipline in library packages (every internal/... package):
//
//   - a function that accepts a context.Context must hand it (or a
//     context derived from it via context.With*) to every callee that
//     takes one — dropping ctx silently detaches a subtree from
//     cancellation;
//   - library code must not mint fresh contexts with context.Background
//     or context.TODO — entry points (cmd, examples, the surveyor
//     facade) own context creation; a compatibility wrapper that
//     genuinely needs one documents it with //lint:allow;
//   - in the worker packages (internal/pipeline, internal/dist), a loop
//     or claim function that claims work with an atomic counter must not
//     consult the context afterwards inside the same iteration or call:
//     PR 5's rule is that cancellation is observed *before* claiming a
//     document, so a claimed document always finishes and the
//     quarantine/commit bookkeeping never sees a half-processed item.
//
// Test files are exempt: harnesses legitimately create their own
// contexts.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/critical"
	"repro/internal/analysis/framework"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &framework.Analyzer{
	Name: "ctxflow",
	Doc: "requires ctx propagation in library packages, forbids context.Background/TODO " +
		"outside entry points, and forbids ctx checks between claim and commit in workers",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	if !critical.Library(pass.Pkg.Path()) {
		return nil, nil
	}
	claimCommit := critical.ClaimCommit(pass.Pkg.Path())
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd, claimCommit)
			return true
		})
	}
	return nil, nil
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, claimCommit bool) {
	info := pass.TypesInfo

	// Contexts derived from the function's ctx parameters: the params
	// themselves plus anything built from them through context.With*.
	var seeds []types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isContext(obj.Type()) {
					seeds = append(seeds, obj)
				}
			}
		}
	}
	derived := framework.NewTaint(fd, framework.TaintConfig{
		Info:  info,
		Seeds: seeds,
		PropagateCall: func(call *ast.CallExpr) bool {
			fn := framework.CalleeFunc(info, call)
			return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context"
		},
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		// Nested function literals get their own FuncDecl-less analysis
		// via the same walk; a goroutine closing over ctx still counts
		// as this function's use.
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s in a library package detaches this call tree from cancellation; "+
					"accept a ctx parameter and propagate it (entry points own context creation)", fn.Name())
			return true
		}
		if len(seeds) == 0 {
			return true
		}
		// The callee takes a context: one of the arguments must derive
		// from our ctx.
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		wantsCtx := false
		for i := 0; i < sig.Params().Len(); i++ {
			if isContext(sig.Params().At(i).Type()) {
				wantsCtx = true
			}
		}
		if !wantsCtx {
			return true
		}
		for _, arg := range call.Args {
			tv, ok := info.Types[arg]
			if ok && isContext(tv.Type) && derived.Expr(arg) {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"%s takes a context but none of the arguments derives from this function's ctx; "+
				"pass ctx (or a context.With* derivation of it) through", fn.Name())
		return true
	})

	if claimCommit {
		checkClaimCommit(pass, fd)
	}
}

// checkClaimCommit flags any use of a context after an atomic claim (a
// .Add call on a sync/atomic counter) in the same claim scope — between
// claim and commit, cancellation must be invisible. A claim scope is a loop
// body, or the body of a function that claims outside any loop: the claim
// function a worker loop calls once per document.
func checkClaimCommit(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch scope := n.(type) {
		case *ast.FuncDecl:
			body = scope.Body
		case *ast.ForStmt:
			body = scope.Body
		case *ast.RangeStmt:
			body = scope.Body
		default:
			return true
		}
		claimEnd := claimPos(info, body, n != fd)
		if !claimEnd.IsValid() {
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || id.Pos() <= claimEnd {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || !isContext(obj.Type()) {
				return true
			}
			pass.Reportf(id.Pos(),
				"ctx consulted after the atomic work claim in this loop or claim function; claimed documents must finish — "+
					"check ctx before claiming (PR 5 cancellation rule)")
			return false
		})
		return true
	})
}

// claimPos returns the end position of the first atomic claim (an
// .Add(...) call on a sync/atomic type) in the block, or NoPos. With loops
// false it stays out of nested loops, which are claim scopes of their own.
func claimPos(info *types.Info, body *ast.BlockStmt, loops bool) (pos token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return loops
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Name() != "Add" {
			return true
		}
		pos = call.End()
		return false
	})
	return pos
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

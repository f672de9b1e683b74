// Package detmap defines an analyzer that flags `for range` over a map in
// the determinism-critical packages (core, evidence, testkit, wire, dist).
//
// Map iteration order is randomized by the runtime, so any value that
// depends on it breaks the bit-identical determinism contract the
// differential harness (PR 1) checks dynamically. The analyzer recognizes
// the repository's sorted-snapshot idiom — append the entries to a slice
// inside the loop, sort that slice afterwards in the same function — and
// accepts it; loops that only count (neither key nor value bound) are
// order-free and also accepted. Everything else is reported. Genuinely
// commutative folds (e.g. merging counters into a sharded store) are
// suppressed case by case with //lint:allow detmap <reason>.
package detmap

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/critical"
	"repro/internal/analysis/framework"
)

// Analyzer is the detmap analyzer.
var Analyzer = &framework.Analyzer{
	Name: "detmap",
	Doc: "flags map iteration in determinism-critical packages unless " +
		"the entries are collected and sorted before use",
	Run: run,
}

func run(pass *framework.Pass) (any, error) {
	if !critical.DeterminismLint(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		checkFuncs(pass, file)
	}
	return nil, nil
}

// checkFuncs walks the file keeping track of the innermost enclosing
// function body, which is the scope the sorted-snapshot idiom is detected
// in.
func checkFuncs(pass *framework.Pass, file *ast.File) {
	var stack []*ast.BlockStmt
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body == nil {
				return false
			}
			stack = append(stack, x.Body)
			ast.Inspect(x.Body, walk)
			stack = stack[:len(stack)-1]
			return false
		case *ast.FuncLit:
			stack = append(stack, x.Body)
			ast.Inspect(x.Body, walk)
			stack = stack[:len(stack)-1]
			return false
		case *ast.RangeStmt:
			if len(stack) > 0 {
				checkRange(pass, x, stack[len(stack)-1])
			}
		}
		return true
	}
	ast.Inspect(file, walk)
}

func checkRange(pass *framework.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// A loop that binds neither key nor value cannot observe the order.
	if isBlank(rs.Key) && isBlank(rs.Value) {
		return
	}
	if sortedAfter(pass, rs, fnBody) {
		return
	}
	pass.Report(framework.Diagnostic{
		Pos: rs.Pos(),
		End: rs.X.End(),
		Message: "map iteration order can leak into results in a determinism-critical package; " +
			"collect the entries into a slice and sort it, or justify with //lint:allow detmap <reason>",
		SuggestedFixes: []framework.SuggestedFix{{
			Message: "collect the keys, sort them, then index the map: " +
				"keys := make([]K, 0, len(m)); for k := range m { keys = append(keys, k) }; " +
				"sort.Slice(keys, ...); for _, k := range keys { ... m[k] ... }",
		}},
	})
}

func isBlank(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// sortedAfter reports whether the loop implements the sorted-snapshot
// idiom: its body appends to some slice variable, and after the loop the
// enclosing function sorts that same variable.
func sortedAfter(pass *framework.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	sinks := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		if obj := framework.RootIdentObj(pass.TypesInfo, as.Lhs[0]); obj != nil {
			sinks[obj] = true
		}
		return true
	})
	if len(sinks) == 0 {
		return false
	}

	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted || n == nil || n.End() <= rs.End() {
			return !sorted
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isSortCall(pass.TypesInfo, call) {
			return true
		}
		if obj := framework.RootIdentObj(pass.TypesInfo, call.Args[0]); obj != nil && sinks[obj] {
			sorted = true
		}
		return true
	})
	return sorted
}

var sortFuncs = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true,
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return sortFuncs[fn.Name()]
	case "slices":
		return len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort"
	}
	return false
}

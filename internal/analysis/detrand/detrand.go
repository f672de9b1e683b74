// Package detrand defines an analyzer that forbids ambient sources of
// nondeterminism — the math/rand global functions, time.Now, and
// crypto/rand — in the determinism-critical packages (core, evidence,
// testkit, wire, dist).
//
// The determinism contract requires every random draw and every timestamp
// to flow from an explicitly seeded generator threaded as a parameter, the
// way internal/corpus threads *stats.RNG. Constructing a seeded generator
// is still allowed: rand.New and rand.NewSource (and the v2 constructors)
// take the seed explicitly, so calls to them do not read ambient state.
package detrand

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/critical"
	"repro/internal/analysis/framework"
)

// Analyzer is the detrand analyzer.
var Analyzer = &framework.Analyzer{
	Name: "detrand",
	Doc: "forbids math/rand globals, time.Now, and crypto/rand in " +
		"determinism-critical packages; thread a seeded generator instead",
	Run: run,
}

// seededConstructors are the math/rand functions that take their seed (or
// source) explicitly and are therefore deterministic to call.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *framework.Pass) (any, error) {
	if !critical.DeterminismLint(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Intn, (*stats.RNG).Float64) act on
			// an explicitly constructed generator and are fine.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if seededConstructors[fn.Name()] {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s.%s draws from the ambient global RNG in a determinism-critical package; "+
						"thread an explicitly seeded generator (*stats.RNG or *rand.Rand) as a parameter",
					fn.Pkg().Name(), fn.Name())
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(call.Pos(),
						"time.Now is nondeterministic in a determinism-critical package; "+
							"inject the timestamp as a parameter")
				}
			case "crypto/rand":
				pass.Reportf(call.Pos(),
					"crypto/rand reads system entropy in a determinism-critical package; "+
						"thread an explicitly seeded generator instead")
			}
			return true
		})
	}
	return nil, nil
}

// Package obsflow defines an analyzer that enforces the write-only
// telemetry contract of internal/obs in the observability-critical
// packages (the determinism-critical set plus the extraction loop).
//
// Instrumented code may record telemetry — counters, spans, progress, EM
// trajectories — but must never read it back, because a computation that
// branches on observed telemetry would make results depend on whether
// observability is enabled (and on scheduling). Three rules:
//
//   - No calls to the read-side API of internal/obs types (Value,
//     Snapshot, Count, Sum, Now, ...). Span.End is deliberately exempt:
//     its duration feeds Result.Timings, the one schedule-dependent output
//     the determinism contract explicitly excludes.
//   - No direct wall-clock reads (time.Now, time.Since, time.Until) —
//     timestamps flow through the obs-owned Clock.
//   - No expvar: process-global mutable state belongs to internal/obs's
//     debug server, not to pipeline code.
//
// Test files are exempt — tests legitimately read telemetry to assert on
// it.
package obsflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/critical"
	"repro/internal/analysis/framework"
)

// Analyzer is the obsflow analyzer.
var Analyzer = &framework.Analyzer{
	Name: "obsflow",
	Doc: "enforces write-only telemetry in observability-critical packages: " +
		"no reads of internal/obs state, no direct wall-clock reads, no expvar",
	Run: run,
}

// readMethods are the read-side methods of internal/obs types. End is
// deliberately absent: Span.End's duration feeds Result.Timings, which the
// determinism contract excludes.
var readMethods = map[string]bool{
	"Value": true, "Snapshot": true, "Count": true, "Sum": true,
	"Now": true, "EventCount": true,
	"WritePrometheus": true, "WriteChromeTrace": true, "WriteJSON": true,
}

// clockReads are the time-package functions that read the wall clock.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *framework.Pass) (any, error) {
	if !critical.Observability(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Package).Filename, "_test.go") {
			continue // tests read telemetry to assert on it
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"expvar"` {
				pass.Reportf(imp.Pos(),
					"expvar is process-global mutable telemetry state; "+
						"publish through the internal/obs debug server instead")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if critical.PathHasSuffix(fn.Pkg().Path(), "internal/obs") && readMethods[fn.Name()] {
					pass.Reportf(call.Pos(),
						"%s.%s reads observability state in an observability-critical package; "+
							"telemetry is write-only there (only Span.End's duration may escape, into Result.Timings)",
						fn.Pkg().Name(), fn.Name())
				}
				return true
			}
			if fn.Pkg().Path() == "time" && clockReads[fn.Name()] {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock in an observability-critical package; "+
						"route timestamps through the internal/obs clock (obs.Span / obs.Clock)",
					fn.Name())
			}
			return true
		})
	}
	return nil, nil
}

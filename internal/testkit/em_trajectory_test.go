package testkit

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// TestTrajectoryMatchesFit: the EM telemetry re-derived from a result is the
// fit itself. For every group of the differential worlds and of the Table-5
// world (where grid EM stalls short of the grid maximum), Trajectory has one
// row per iteration, its log-likelihoods are Trace.LogLikelihoods bit for
// bit, and its last row is Model.Params; EMSummary has one row per group, in
// the result's key order.
func TestTrajectoryMatchesFit(t *testing.T) {
	results := map[string]*pipeline.Result{
		"table5 seed 1": experiments.Table5World(experiments.Table5Config{Seed: 1}).Result,
	}
	for _, seed := range []uint64{1, 2, 3} {
		w := NewWorld(seed, diffScale)
		results[fmt.Sprintf("differential seed %d", seed)] = pipeline.Run(w.Docs(), w.KB, w.Lex, pipeline.Config{Rho: 10})
	}
	cfg := core.DefaultEMConfig()
	for name, res := range results {
		if len(res.Groups) == 0 {
			t.Fatalf("%s: no modelled groups", name)
		}
		sum := res.EMSummary()
		if sum.Groups != len(res.Groups) || len(sum.Records) != len(res.Groups) {
			t.Fatalf("%s: summary has %d groups / %d rows, result %d", name, sum.Groups, len(sum.Records), len(res.Groups))
		}
		for i := range res.Groups {
			g := &res.Groups[i]
			if rec := sum.Records[i]; rec.Type != g.Key.Type || rec.Property != g.Key.Property || rec.Iterations != g.Trace.Iterations {
				t.Errorf("%s: summary row %d is %s/%s (%d iterations), group is %v (%d)",
					name, i, rec.Type, rec.Property, rec.Iterations, g.Key, g.Trace.Iterations)
			}
			traj := g.Trajectory(cfg)
			if len(traj) != g.Trace.Iterations || len(traj) == 0 {
				t.Errorf("%s %v: trajectory has %d rows, fit ran %d iterations", name, g.Key, len(traj), g.Trace.Iterations)
				continue
			}
			for k, it := range traj {
				if math.Float64bits(float64(it.LogLikelihood)) != math.Float64bits(g.Trace.LogLikelihoods[k]) {
					t.Errorf("%s %v iteration %d: replayed log-likelihood %v, fit %v",
						name, g.Key, k+1, float64(it.LogLikelihood), g.Trace.LogLikelihoods[k])
				}
			}
			last := traj[len(traj)-1]
			if p := (core.Params{PA: last.PA, NpPlus: last.NpPlus, NpMinus: last.NpMinus}); p != g.Model.Params {
				t.Errorf("%s %v: replay ends at %+v, fit at %+v", name, g.Key, p, g.Model.Params)
			}
		}
	}
}

package pipeline

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/obs"
)

// TestEMSummaryAndTrajectoryOfOneFit: the EM telemetry of a fitted group is
// re-derived from its result. The summary aggregates count the fit, its row
// names the group and its size, and the replayed trajectory has one row per
// iteration, ending at the fit's parameters and final log-likelihood.
func TestEMSummaryAndTrajectoryOfOneFit(t *testing.T) {
	g := GroupResult{Key: evidence.GroupKey{Type: "city", Property: "big"}}
	tuples := make([]core.Tuple, 50)
	for i := range tuples {
		pos, neg := i%7, i%3
		if i < 20 {
			pos, neg = 0, 0 // entities nobody wrote about
		}
		tuples[i] = core.Tuple{Pos: pos, Neg: neg}
		g.Entities = append(g.Entities, EntityOpinion{Entity: kb.EntityID(i), Pos: int64(pos), Neg: int64(neg)})
	}
	cfg := core.DefaultEMConfig()
	g.Model, g.Trace = core.FitEM(tuples, cfg)
	if g.Trace.Iterations < 2 {
		t.Fatalf("fit ran %d iterations, want at least 2", g.Trace.Iterations)
	}

	snap := AssembleResult(nil, []GroupResult{g}, ResultStats{}).EMSummary()
	converged := 0
	if g.Trace.Converged {
		converged = 1
	}
	if snap.Groups != 1 || snap.Converged != converged || snap.TotalIterations != g.Trace.Iterations {
		t.Fatalf("aggregates = %+v, fit %+v", snap, g.Trace)
	}
	if snap.MeanIterations != float64(g.Trace.Iterations) {
		t.Errorf("mean iterations = %g, want %d", snap.MeanIterations, g.Trace.Iterations)
	}
	rec := snap.Records[0]
	if rec.Type != "city" || rec.Property != "big" || rec.Entities != 50 {
		t.Errorf("record identity = %+v", rec)
	}
	traj := g.Trajectory(cfg)
	if len(traj) != g.Trace.Iterations {
		t.Fatalf("trajectory length = %d, want %d", len(traj), g.Trace.Iterations)
	}
	last := traj[len(traj)-1]
	if p := (core.Params{PA: last.PA, NpPlus: last.NpPlus, NpMinus: last.NpMinus}); p != g.Model.Params {
		t.Errorf("trajectory ends at %+v, fit at %+v", p, g.Model.Params)
	}
	if last.LogLikelihood != rec.FinalLogLikelihood {
		t.Errorf("log-likelihoods = %v / %v", last.LogLikelihood, rec.FinalLogLikelihood)
	}
}

// TestEMSummarySortedAndJSONSafe: the EM summary of a result lists its rows
// in (type, property) order, and a degenerate fit's -Inf log-likelihood
// survives a JSON round trip.
func TestEMSummarySortedAndJSONSafe(t *testing.T) {
	var groups []GroupResult
	for _, k := range [][2]string{{"a", "x"}, {"a", "z"}, {"b", "y"}} {
		groups = append(groups, GroupResult{
			Key:   evidence.GroupKey{Type: k[0], Property: k[1]},
			Trace: core.Trace{Iterations: 1, LogLikelihoods: []float64{math.Inf(-1)}}, // degenerate fit
		})
	}
	snap := AssembleResult(nil, groups, ResultStats{}).EMSummary()
	order := ""
	for _, rec := range snap.Records {
		order += rec.Type + rec.Property + " "
	}
	if order != "ax az by " {
		t.Errorf("records not sorted by (type, property): %s", order)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("-Inf log-likelihood broke JSON encoding: %v", err)
	}
	var back obs.EMSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back.Records) != 3 || !math.IsInf(float64(back.Records[0].FinalLogLikelihood), -1) {
		t.Errorf("round-tripped records = %+v, want 3 with final ll -Inf", back.Records)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestEMRecorderTrajectory(t *testing.T) {
	r := NewEMRecorder()
	g := r.Group("city", "big", 50)
	g.Iter(0.80, 2.0, 0.5, -120)
	g.Iter(0.85, 2.5, 0.4, -100)
	g.Done(2, true, -100)

	snap := r.Snapshot()
	if snap.Groups != 1 || snap.Converged != 1 || snap.TotalIterations != 2 {
		t.Fatalf("aggregates = %+v", snap)
	}
	if snap.MeanIterations != 2 {
		t.Errorf("mean iterations = %g, want 2", snap.MeanIterations)
	}
	rec := snap.Records[0]
	if rec.Type != "city" || rec.Property != "big" || rec.Entities != 50 {
		t.Errorf("record identity = %+v", rec)
	}
	if len(rec.Trajectory) != 2 {
		t.Fatalf("trajectory length = %d, want 2", len(rec.Trajectory))
	}
	first, second := rec.Trajectory[0], rec.Trajectory[1]
	if first.DeltaPA != 0 || first.DeltaNpPlus != 0 || first.DeltaNpMinus != 0 {
		t.Errorf("first iteration deltas = %+v, want zeros", first)
	}
	if math.Abs(second.DeltaPA-0.05) > 1e-12 ||
		math.Abs(second.DeltaNpPlus-0.5) > 1e-12 ||
		math.Abs(second.DeltaNpMinus-0.1) > 1e-12 {
		t.Errorf("second iteration deltas = %+v", second)
	}
	if float64(second.LogLikelihood) != -100 || float64(rec.FinalLogLikelihood) != -100 {
		t.Errorf("log-likelihoods = %v / %v", second.LogLikelihood, rec.FinalLogLikelihood)
	}
}

// TestEMRecorderTrajectoryCap trips the real cap: group 65 keeps its
// summary row and loses its trajectory.
func TestEMRecorderTrajectoryCap(t *testing.T) {
	r := NewEMRecorder()
	for i := 0; i <= maxEMTrajectories; i++ {
		g := r.Group("t", fmt.Sprint(i), 1)
		g.Iter(0.8, 1, 1, -1)
		g.Done(1, true, -1)
	}
	snap := r.Snapshot()
	if snap.Groups != maxEMTrajectories+1 || len(snap.Records) != maxEMTrajectories+1 {
		t.Fatalf("groups = %d, records = %d, want %d of each (summaries keep counting past the cap)",
			snap.Groups, len(snap.Records), maxEMTrajectories+1)
	}
	kept := 0
	for _, rec := range snap.Records {
		if len(rec.Trajectory) > 0 {
			kept++
		}
	}
	if kept != maxEMTrajectories {
		t.Errorf("trajectories kept = %d, want %d", kept, maxEMTrajectories)
	}
}

// TestEMRecorderGroupCap trips the real cap: row 4,097 is dropped, the
// aggregates still count it.
func TestEMRecorderGroupCap(t *testing.T) {
	r := NewEMRecorder()
	for i := 0; i <= maxEMGroups; i++ {
		r.Group("t", fmt.Sprint(i), 1).Done(3, false, -5)
	}
	snap := r.Snapshot()
	if snap.Groups != maxEMGroups+1 || snap.TotalIterations != 3*(maxEMGroups+1) || snap.Converged != 0 {
		t.Errorf("aggregates = %d groups / %d iters / %d converged, want every group counted",
			snap.Groups, snap.TotalIterations, snap.Converged)
	}
	if len(snap.Records) != maxEMGroups {
		t.Errorf("records = %d, want %d (capped)", len(snap.Records), maxEMGroups)
	}
}

// TestEMRecorderSampling pins the selection policy: which groups keep a
// trajectory depends on the cap alone, never on the group's key, so /em
// for a run of at most maxEMTrajectories groups has every trajectory.
func TestEMRecorderSampling(t *testing.T) {
	r := NewEMRecorder()
	for i := 0; i < maxEMTrajectories; i++ {
		g := r.Group("t", string(rune('a'+i%26))+string(rune('a'+i/26)), 1)
		g.Iter(0.8, 1, 1, -1)
		g.Done(1, true, -1)
	}
	for _, rec := range r.Snapshot().Records {
		if len(rec.Trajectory) != 1 {
			t.Errorf("%s/%s: trajectory length %d, want 1", rec.Type, rec.Property, len(rec.Trajectory))
		}
	}
}

func TestEMSnapshotSortedAndJSONSafe(t *testing.T) {
	r := NewEMRecorder()
	for _, k := range [][2]string{{"b", "y"}, {"a", "z"}, {"a", "x"}} {
		g := r.Group(k[0], k[1], 1)
		g.Done(1, false, math.Inf(-1)) // degenerate fit: -Inf log-likelihood
	}
	snap := r.Snapshot()
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
	var back EMSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsInf(float64(back.Records[0].FinalLogLikelihood), -1) {
		t.Errorf("round-tripped final ll = %v, want -Inf", back.Records[0].FinalLogLikelihood)
	}
}

func TestNilEMRecorder(t *testing.T) {
	var r *EMRecorder
	g := r.Group("t", "p", 1)
	g.Iter(0.8, 1, 1, -1)
	g.Done(1, true, -1)
	if snap := r.Snapshot(); snap.Groups != 0 {
		t.Errorf("nil recorder snapshot = %+v", snap)
	}
}

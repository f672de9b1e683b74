package experiments

import (
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/evidence"
)

// TestCalibrationReport logs the end-to-end calibration of the synthetic
// world against the paper's reported numbers; run with -v to inspect.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	w := BuildEvalWorld(WorldConfig{Seed: 1, Scale: 0.5})
	t.Logf("groups modelled: %d of %d before filter; statements %d",
		len(w.Result.Groups), w.Result.PairsBeforeFilter, w.Result.TotalStatements)
	modelled := map[string]bool{}
	for _, g := range w.Result.Groups {
		modelled[g.Key.Type+"/"+g.Key.Property] = true
	}
	for _, s := range w.Snapshot.Specs {
		key := s.Type + "/" + s.Property
		if !modelled[key] {
			t.Logf("NOT MODELLED: %s", key)
		}
	}
	cases := w.EvalCases()
	for _, m := range MethodNames {
		t.Logf("%-22s %+v", m, eval.Score(cases, m))
	}
	// How many test-case pairs have zero evidence?
	zero := 0
	for _, tc := range w.Cases {
		c := w.Result.Store.Get(evidence.Key{Entity: tc.Entity, Property: tc.Property})
		if c.Total() == 0 {
			zero++
		}
	}
	t.Logf("test cases with zero evidence: %d / %d", zero, len(w.Cases))

	// Per-combo breakdown: solved/correct for MV and Surveyor.
	type tally struct{ mvS, mvC, svS, svC, n, posT int }
	byCombo := map[string]*tally{}
	for _, tc := range w.Cases {
		if tc.Judgement.IsTie() {
			continue
		}
		key := tc.Type + "/" + tc.Property
		tl := byCombo[key]
		if tl == nil {
			tl = &tally{}
			byCombo[key] = tl
		}
		tl.n++
		truth := tc.Judgement.Dominant().String() == "+"
		if truth {
			tl.posT++
		}
		c := w.Result.Store.Get(evidence.Key{Entity: tc.Entity, Property: tc.Property})
		if c.Pos != c.Neg {
			tl.mvS++
			if (c.Pos > c.Neg) == truth {
				tl.mvC++
			}
		}
		if op, ok := w.Result.Opinion(w.KB.Get(tc.Entity).Type, tc.Entity, tc.Property); ok && op.Opinion != 0 {
			tl.svS++
			if (op.Opinion > 0) == truth {
				tl.svC++
			}
		}
	}
	keys := make([]string, 0, len(byCombo))
	for k := range byCombo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tl := byCombo[k]
		t.Logf("%-28s n=%2d pos=%2d  MV %2d/%2d  SURV %2d/%2d", k, tl.n, tl.posT, tl.mvC, tl.mvS, tl.svC, tl.svS)
	}

	mtn := Fig13(WorldConfig{Seed: 1, Scale: 0.5, Rho: 15})
	for _, r := range mtn {
		t.Logf("fig13 %s/%s: MV corr %.2f dec %.2f | model corr %.2f dec %.2f | zeroEv %d",
			r.Property, r.Type, r.MVCorrelation, r.MVDecided,
			r.ModelCorrelation, r.ModelDecided, r.ZeroEvidence)
	}
}

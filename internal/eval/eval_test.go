package eval

import (
	"math"
	"testing"

	"repro/internal/core"
)

func mkCase(truth bool, agreement int, preds map[string]core.Opinion) Case {
	return Case{Truth: truth, Agreement: agreement, Predictions: preds}
}

func TestScoreBasic(t *testing.T) {
	cases := []Case{
		mkCase(true, 20, map[string]core.Opinion{"m": core.OpinionPositive}),  // correct
		mkCase(false, 20, map[string]core.Opinion{"m": core.OpinionPositive}), // wrong
		mkCase(true, 20, map[string]core.Opinion{"m": core.OpinionUnsolved}),  // unsolved
		mkCase(false, 20, map[string]core.Opinion{"m": core.OpinionNegative}), // correct
	}
	m := Score(cases, "m")
	if m.Total != 4 || m.Solved != 3 || m.Correct != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if math.Abs(m.Coverage-0.75) > 1e-12 {
		t.Fatalf("coverage = %v", m.Coverage)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 {
		t.Fatalf("precision = %v", m.Precision)
	}
	wantF1 := 2 * (2.0 / 3) * 0.75 / (2.0/3 + 0.75)
	if math.Abs(m.F1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", m.F1, wantF1)
	}
}

func TestScoreMissingMethod(t *testing.T) {
	cases := []Case{mkCase(true, 20, map[string]core.Opinion{})}
	m := Score(cases, "absent")
	if m.Solved != 0 || m.Coverage != 0 || m.Precision != 0 || m.F1 != 0 {
		t.Fatalf("metrics for absent method = %+v", m)
	}
}

func TestScoreEmpty(t *testing.T) {
	m := Score(nil, "m")
	if m.Coverage != 0 || m.Precision != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
}

func TestF1(t *testing.T) {
	if got := F1(0, 0); got != 0 {
		t.Fatalf("F1(0,0) = %v", got)
	}
	if got := F1(1, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("F1(1,1) = %v", got)
	}
	if got := F1(0.5, 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1(.5,1) = %v", got)
	}
}

func TestFilterByAgreement(t *testing.T) {
	cases := []Case{
		mkCase(true, 11, nil), mkCase(true, 15, nil), mkCase(true, 20, nil),
	}
	if got := len(FilterByAgreement(cases, 15)); got != 2 {
		t.Fatalf("filtered = %d", got)
	}
	if got := len(FilterByAgreement(cases, 21)); got != 0 {
		t.Fatalf("filtered = %d", got)
	}
}

func TestSweepAgreement(t *testing.T) {
	preds := func(o core.Opinion) map[string]core.Opinion {
		return map[string]core.Opinion{"m": o}
	}
	cases := []Case{
		mkCase(true, 12, preds(core.OpinionNegative)),  // wrong, low agreement
		mkCase(true, 19, preds(core.OpinionPositive)),  // correct, high agreement
		mkCase(false, 20, preds(core.OpinionNegative)), // correct, high agreement
	}
	sweep := SweepAgreement(cases, []string{"m"}, []int{11, 18})
	if len(sweep) != 2 {
		t.Fatalf("sweep points = %d", len(sweep))
	}
	if sweep[0].Cases != 3 || sweep[1].Cases != 2 {
		t.Fatalf("case counts: %d, %d", sweep[0].Cases, sweep[1].Cases)
	}
	// Precision rises with the threshold (the Figure-12 shape).
	if sweep[1].ByMethod["m"].Precision <= sweep[0].ByMethod["m"].Precision {
		t.Fatalf("precision should rise: %v -> %v",
			sweep[0].ByMethod["m"].Precision, sweep[1].ByMethod["m"].Precision)
	}
}

func TestDecisionRate(t *testing.T) {
	ops := []core.Opinion{core.OpinionPositive, core.OpinionUnsolved, core.OpinionNegative, core.OpinionUnsolved}
	if got := DecisionRate(ops); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("DecisionRate = %v", got)
	}
	if got := DecisionRate(nil); got != 0 {
		t.Fatalf("DecisionRate(nil) = %v", got)
	}
}

func TestScoreAllUnsolved(t *testing.T) {
	cases := []Case{
		mkCase(true, 20, map[string]core.Opinion{"m": core.OpinionUnsolved}),
		mkCase(false, 20, map[string]core.Opinion{"m": core.OpinionUnsolved}),
	}
	m := Score(cases, "m")
	if m.Coverage != 0 || m.Precision != 0 || m.F1 != 0 {
		t.Fatalf("all-unsolved metrics = %+v", m)
	}
}

func TestFilterByAgreementEmpty(t *testing.T) {
	if got := FilterByAgreement(nil, 15); len(got) != 0 {
		t.Fatalf("filtered nil = %v", got)
	}
}

func TestSweepAgreementEmptyCases(t *testing.T) {
	sweep := SweepAgreement(nil, []string{"m"}, []int{11, 20})
	if len(sweep) != 2 || sweep[0].Cases != 0 {
		t.Fatalf("sweep = %v", sweep)
	}
}

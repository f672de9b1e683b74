// Package eval implements the evaluation measures of Section 7.4 —
// coverage, precision, F1 — plus the agreement-threshold sweeps behind
// Figures 11/12 and the polarity-vs-attribute correlation analysis behind
// Figures 3 and 13.
package eval

import (
	"repro/internal/core"
)

// Metrics are the three evaluation measures of the paper. Coverage is the
// ratio of solved to total cases, precision the ratio of correctly solved
// to solved, F1 their harmonic mean.
type Metrics struct {
	Coverage  float64
	Precision float64
	F1        float64
	Total     int
	Solved    int
	Correct   int
}

// Case is one evaluated entity-property pair: the ground-truth dominant
// opinion (from the worker panel), the worker agreement, and each
// method's prediction.
type Case struct {
	Truth       bool // dominant opinion is positive
	Agreement   int  // workers sharing the majority opinion
	Predictions map[string]core.Opinion
}

// Score computes the metrics of one method over the cases.
func Score(cases []Case, method string) Metrics {
	m := Metrics{Total: len(cases)}
	for _, c := range cases {
		pred, ok := c.Predictions[method]
		if !ok || pred == core.OpinionUnsolved {
			continue
		}
		m.Solved++
		if (pred == core.OpinionPositive) == c.Truth {
			m.Correct++
		}
	}
	if m.Total > 0 {
		m.Coverage = float64(m.Solved) / float64(m.Total)
	}
	if m.Solved > 0 {
		m.Precision = float64(m.Correct) / float64(m.Solved)
	}
	m.F1 = F1(m.Precision, m.Coverage)
	return m
}

// F1 returns the harmonic mean of precision and coverage.
func F1(precision, coverage float64) float64 {
	if precision+coverage == 0 {
		return 0
	}
	return 2 * precision * coverage / (precision + coverage)
}

// FilterByAgreement keeps cases with worker agreement >= minAgreement.
func FilterByAgreement(cases []Case, minAgreement int) []Case {
	out := cases[:0:0]
	for _, c := range cases {
		if c.Agreement >= minAgreement {
			out = append(out, c)
		}
	}
	return out
}

// SweepPoint is one threshold of the Figure-12 sweep.
type SweepPoint struct {
	MinAgreement int
	Cases        int
	ByMethod     map[string]Metrics
}

// SweepAgreement evaluates every method at each agreement threshold —
// the Figure 12 series (precision and coverage vs minimum agreement).
func SweepAgreement(cases []Case, methods []string, thresholds []int) []SweepPoint {
	out := make([]SweepPoint, 0, len(thresholds))
	for _, th := range thresholds {
		sub := FilterByAgreement(cases, th)
		pt := SweepPoint{MinAgreement: th, Cases: len(sub), ByMethod: map[string]Metrics{}}
		for _, m := range methods {
			pt.ByMethod[m] = Score(sub, m)
		}
		out = append(out, pt)
	}
	return out
}

// DecisionRate returns the fraction of opinions that are not unsolved.
func DecisionRate(opinions []core.Opinion) float64 {
	if len(opinions) == 0 {
		return 0
	}
	solved := 0
	for _, o := range opinions {
		if o != core.OpinionUnsolved {
			solved++
		}
	}
	return float64(solved) / float64(len(opinions))
}

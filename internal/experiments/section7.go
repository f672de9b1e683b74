package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/eval"
	"repro/internal/evidence"
	"repro/internal/stats"
)

// MethodMetrics is one row of Table 3 / Table 5.
type MethodMetrics struct {
	Method string
	eval.Metrics
}

// Table3Result compares the four methods on the curated 500-case test set.
type Table3Result struct {
	Rows []MethodMetrics
	// PaperRows are the values reported in the paper, for side-by-side
	// shape comparison.
	PaperRows []MethodMetrics
}

// Table3 runs the headline comparison (Section 7.4, Table 3).
func Table3(w *World) Table3Result {
	cases := w.EvalCases()
	res := Table3Result{PaperRows: paperTable3}
	for _, m := range MethodNames {
		res.Rows = append(res.Rows, MethodMetrics{Method: m, Metrics: eval.Score(cases, m)})
	}
	return res
}

var paperTable3 = []MethodMetrics{
	{Method: "Majority Vote", Metrics: eval.Metrics{Coverage: 0.483, Precision: 0.29, F1: 0.36}},
	{Method: "Scaled Majority Vote", Metrics: eval.Metrics{Coverage: 0.486, Precision: 0.37, F1: 0.42}},
	{Method: "WebChild", Metrics: eval.Metrics{Coverage: 0.477, Precision: 0.54, F1: 0.51}},
	{Method: "Surveyor", Metrics: eval.Metrics{Coverage: 0.966, Precision: 0.77, F1: 0.84}},
}

// Format renders the result as an aligned table.
func (r Table3Result) Format() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Approach\tCoverage\tPrecision\tF1\t(paper: cov/prec/F1)")
	for i, row := range r.Rows {
		p := r.PaperRows[i]
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.2f\t(%.3f/%.2f/%.2f)\n",
			row.Method, row.Coverage, row.Precision, row.F1,
			p.Coverage, p.Precision, p.F1)
	}
	tw.Flush()
	return b.String()
}

// Fig11Result is the worker-agreement distribution (Figure 11).
type Fig11Result struct {
	Thresholds []int // 11..20
	Cases      []int // #cases with agreement >= threshold
	Mean       float64
	Perfect    int // cases with full agreement
	Ties       int
}

// Fig11 computes the agreement histogram of the simulated AMT panel.
func Fig11(w *World) Fig11Result {
	out := Fig11Result{}
	workers := w.Cases[0].Judgement.Workers
	minA := workers/2 + 1
	for t := minA; t <= workers; t++ {
		out.Thresholds = append(out.Thresholds, t)
	}
	counts := make([]int, len(out.Thresholds))
	sum := 0
	for _, c := range w.Cases {
		a := c.Judgement.Agreement()
		sum += a
		if a == workers {
			out.Perfect++
		}
		if c.Judgement.IsTie() {
			out.Ties++
		}
		for i, t := range out.Thresholds {
			if a >= t {
				counts[i]++
			}
		}
	}
	out.Cases = counts
	out.Mean = float64(sum) / float64(len(w.Cases))
	return out
}

// Format renders the histogram.
func (r Fig11Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mean agreement %.1f/20, %d perfect, %d ties (paper: 17/20, ~180, 4%%)\n",
		r.Mean, r.Perfect, r.Ties)
	for i, t := range r.Thresholds {
		fmt.Fprintf(&b, "agreement >= %2d: %4d cases\n", t, r.Cases[i])
	}
	return b.String()
}

// Fig12Result is the precision/coverage-vs-agreement sweep (Figure 12).
type Fig12Result struct {
	Points []eval.SweepPoint
}

// Fig12 sweeps the agreement threshold for all four methods.
func Fig12(w *World) Fig12Result {
	cases := w.EvalCases()
	workers := w.Cases[0].Judgement.Workers
	var thresholds []int
	for t := workers/2 + 1; t <= workers; t++ {
		thresholds = append(thresholds, t)
	}
	return Fig12Result{Points: eval.SweepAgreement(cases, MethodNames, thresholds)}
}

// Format renders precision and coverage series per method.
func (r Fig12Result) Format() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "minAgree\tcases")
	for _, m := range MethodNames {
		fmt.Fprintf(tw, "\t%s P/C", shortName(m))
	}
	fmt.Fprintln(tw)
	for _, pt := range r.Points {
		fmt.Fprintf(tw, "%d\t%d", pt.MinAgreement, pt.Cases)
		for _, m := range MethodNames {
			mm := pt.ByMethod[m]
			fmt.Fprintf(tw, "\t%.2f/%.2f", mm.Precision, mm.Coverage)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}

func shortName(m string) string {
	switch m {
	case "Majority Vote":
		return "MV"
	case "Scaled Majority Vote":
		return "SMV"
	case "WebChild":
		return "WC"
	}
	return "SURV"
}

// Fig9Result holds the extraction statistics percentiles (Figure 9).
type Fig9Result struct {
	Percentiles []float64 // the x axis: 0..100
	// StatementsPerEntity: statements about each KB entity (all
	// properties), zero-evidence entities included — Figure 9(a).
	StatementsPerEntity []float64
	// StatementsPerCombo: statements per (type, property) pair with any
	// evidence — Figure 9(b).
	StatementsPerCombo []float64
	// PropertiesPerType: properties above the ρ threshold per type —
	// Figure 9(c).
	PropertiesPerType []float64
}

// Fig9 computes the three percentile curves from a pipeline run.
func Fig9(w *World, rho int64) Fig9Result {
	ps := []float64{0, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100}

	perEntity := make([]float64, w.KB.Len())
	comboTotals := map[evidence.GroupKey]float64{}
	for _, e := range w.Result.Store.Snapshot() {
		perEntity[e.Entity] += float64(e.Total())
		gk := evidence.GroupKey{Type: w.KB.Get(e.Entity).Type, Property: e.Property}
		comboTotals[gk] += float64(e.Total())
	}
	var perCombo []float64
	propsPerType := map[string]float64{}
	for gk, total := range comboTotals {
		perCombo = append(perCombo, total)
		if total >= float64(rho) {
			propsPerType[gk.Type]++
		}
	}
	var perType []float64
	for _, t := range w.KB.Types() {
		perType = append(perType, propsPerType[t])
	}

	return Fig9Result{
		Percentiles:         ps,
		StatementsPerEntity: stats.Percentiles(perEntity, ps),
		StatementsPerCombo:  stats.Percentiles(perCombo, ps),
		PropertiesPerType:   stats.Percentiles(perType, ps),
	}
}

// Format renders the three percentile curves.
func (r Fig9Result) Format() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "percentile\tstmts/entity\tstmts/combo\tprops/type")
	for i, p := range r.Percentiles {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%.1f\t%.1f\n",
			p, r.StatementsPerEntity[i], r.StatementsPerCombo[i], r.PropertiesPerType[i])
	}
	tw.Flush()
	return b.String()
}

// ScaleStats summarises the pipeline run in the style of Section 7.1.
type ScaleStats struct {
	Documents          int
	Sentences          int64
	Statements         int64
	EntityPropertyPair int
	CombosBeforeFilter int
	CombosModelled     int
	OpinionsProduced   int64
	ExtractionMillis   int64
	GroupingMillis     int64
	EMMillis           int64
}

// Scale extracts the Section-7.1 statistics from a world.
func Scale(w *World) ScaleStats {
	var opinions int64
	for i := range w.Result.Groups {
		opinions += int64(len(w.Result.Groups[i].Entities))
	}
	return ScaleStats{
		Documents:          w.Result.Documents,
		Sentences:          w.Result.Sentences,
		Statements:         w.Result.TotalStatements,
		EntityPropertyPair: w.Result.DistinctPairs,
		CombosBeforeFilter: w.Result.PairsBeforeFilter,
		CombosModelled:     len(w.Result.Groups),
		OpinionsProduced:   opinions,
		ExtractionMillis:   w.Result.Timings.Extraction.Milliseconds(),
		GroupingMillis:     w.Result.Timings.Grouping.Milliseconds(),
		EMMillis:           w.Result.Timings.EM.Milliseconds(),
	}
}

// Format renders the scale statistics; the wall-clock fields are left out,
// so the text is a function of the world alone.
func (s ScaleStats) Format() string {
	return fmt.Sprintf(`documents:            %d
sentences:            %d
evidence statements:  %d  (paper: 922M)
entity-property pairs: %d  (paper: 60M)
combos before filter: %d  (paper: 7M)
combos modelled:      %d  (paper: 380k)
opinions produced:    %d  (paper: 4B)
`, s.Documents, s.Sentences, s.Statements, s.EntityPropertyPair,
		s.CombosBeforeFilter, s.CombosModelled, s.OpinionsProduced)
}

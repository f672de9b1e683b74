package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/extract"
	"repro/internal/kb"
)

// Table4Row is one extraction-pattern version of Appendix B.
type Table4Row struct {
	Version    extract.Version
	Modifiers  string
	Verbs      string
	Checks     bool
	Statements int64
	// SurveyorF1 quantifies the "extraction quality" the paper assessed by
	// inspection: the downstream F1 of the full system when fed this
	// version's extractions.
	SurveyorF1 float64
	// ExtractionMillis is the wall time of the run's extraction phase:
	// the NLP front end plus pattern matching, as in ScaleStats. It
	// does not isolate a version's matching cost — for the cost of the
	// intrinsicness checks alone see BenchmarkAblationChecksOnOff.
	ExtractionMillis int64
}

// Table4 re-runs the pipeline and the full evaluation under all four
// historical pattern versions (Appendix B). Expected shape: v2 > v1 > v4
// > v3 in statement volume; v4 the best downstream quality.
func Table4(w *World, rho int64) []Table4Row {
	meta := []struct {
		v         extract.Version
		modifiers string
		verbs     string
		checks    bool
	}{
		{extract.V1, "amod", "copula", false},
		{extract.V2, "amod+acomp", "copula", false},
		{extract.V3, "acomp", "to be", true},
		{extract.V4, "amod+acomp", "to be", true},
	}
	var rows []Table4Row
	for _, m := range meta {
		res := w.RunVersion(m.v, rho)
		cases := w.EvalCasesFor(res)
		rows = append(rows, Table4Row{
			Version:          m.v,
			Modifiers:        m.modifiers,
			Verbs:            m.verbs,
			Checks:           m.checks,
			Statements:       res.TotalStatements,
			SurveyorF1:       eval.Score(cases, "Surveyor").F1,
			ExtractionMillis: res.Timings.Extraction.Milliseconds(),
		})
	}
	return rows
}

// FormatTable4 renders the version comparison, without the wall-clock
// ExtractionMillis.
func FormatTable4(rows []Table4Row) string {
	paper := map[extract.Version]int64{
		extract.V1: 1321194344, extract.V2: 1779253966,
		extract.V3: 98574972, extract.V4: 922299774,
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vers\tmodifiers\tverbs\tcheck\tstatements\tF1\t(paper stmts)")
	for _, r := range rows {
		check := "no"
		if r.Checks {
			check = "yes"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%.2f\t(%d)\n",
			r.Version, r.Modifiers, r.Verbs, check,
			r.Statements, r.SurveyorF1, paper[r.Version])
	}
	tw.Flush()
	return b.String()
}

// Table5Result is the random-sample comparison of Appendix D.
type Table5Result struct {
	Combos   int
	Cases    int
	Rows     []MethodMetrics
	PaperRow []MethodMetrics
}

// Table5Config sizes the random-sample experiment. The paper sampled 803
// combinations with 7 entities each (5500+ cases).
type Table5Config struct {
	Seed   uint64
	Combos int // number of random (type, property) combinations
	Scale  float64
	Rho    int64
}

const table5EntitiesPerType, table5CasesPerCombo = 40, 7 // per random type; per combination

func (c Table5Config) withDefaults() Table5Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Combos == 0 {
		c.Combos = 803
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Rho == 0 {
		c.Rho = 40
	}
	return c
}

// Table5 builds the long-tail random world and compares all four methods.
// Expected shape: baseline coverage collapses (most sampled entities are
// never mentioned) while Surveyor stays ≈ 1 with comparable precision.
func Table5(cfg Table5Config) Table5Result {
	cfg = cfg.withDefaults()
	cases := Table5World(cfg).EvalCases()
	res := Table5Result{Combos: cfg.Combos, Cases: len(cases), PaperRow: paperTable5}
	for _, m := range MethodNames {
		res.Rows = append(res.Rows, MethodMetrics{Method: m, Metrics: eval.Score(cases, m)})
	}
	return res
}

// Table5World builds and mines the long-tail random world Table 5 scores.
func Table5World(cfg Table5Config) *World {
	cfg = cfg.withDefaults()
	builder := kb.NewBuilder(cfg.Seed)
	types := builder.RandomDomains(cfg.Combos, table5EntitiesPerType)
	base := builder.KB()
	specs := corpus.RandomSpecs(types, propertyPool, cfg.Seed)
	return BuildWorld(WorldConfig{
		Seed: cfg.Seed, Scale: cfg.Scale, Rho: cfg.Rho,
		EntitiesPerCombo: table5CasesPerCombo,
		UniformCases:     true, // Appendix D samples entities randomly
	}, base, specs)
}

var paperTable5 = []MethodMetrics{
	{Method: "Majority Vote", Metrics: eval.Metrics{Coverage: 0.0766, Precision: 0.333, F1: 0.125}},
	{Method: "Scaled Majority Vote", Metrics: eval.Metrics{Coverage: 0.0773, Precision: 0.417, F1: 0.130}},
	{Method: "WebChild", Metrics: eval.Metrics{Coverage: 0.173, Precision: 0.615, F1: 0.270}},
	{Method: "Surveyor", Metrics: eval.Metrics{Coverage: 0.999, Precision: 0.784, F1: 0.879}},
}

// Format renders the random-sample comparison.
func (r Table5Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d random combos, %d test cases\n", r.Combos, r.Cases)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Approach\tCoverage\tPrecision\tF1\t(paper: cov/prec/F1)")
	for i, row := range r.Rows {
		p := r.PaperRow[i]
		fmt.Fprintf(tw, "%s\t%.4f\t%.3f\t%.3f\t(%.4f/%.3f/%.3f)\n",
			row.Method, row.Coverage, row.Precision, row.F1,
			p.Coverage, p.Precision, p.F1)
	}
	tw.Flush()
	return b.String()
}

// propertyPool is the deterministic pool of subjective adjectives the
// random (type, property) combinations draw from.
var propertyPool = []string{"big", "rare", "popular", "dangerous", "cheap",
	"boring", "exciting", "vital", "solid", "pretty", "cute", "fast",
	"quiet", "young", "friendly", "crazy", "cool", "deadly",
	"addictive", "hectic"}

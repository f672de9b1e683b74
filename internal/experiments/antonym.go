package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/corpus"
	"repro/internal/crowd"
	"repro/internal/eval"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/pipeline"
)

// AntonymMode selects how antonym statements are interpreted.
type AntonymMode int

// The three interpretations compared by the ablation.
const (
	AntonymIgnore AntonymMode = iota // the paper's choice: separate properties
	AntonymStrict                    // "X is small" -> (X, big, −) only
	AntonymNaive                     // additionally "X is not small" -> (X, big, +)
)

func (m AntonymMode) String() string {
	switch m {
	case AntonymStrict:
		return "fold-positive-only"
	case AntonymNaive:
		return "fold-both-directions"
	}
	return "ignore (paper)"
}

// AntonymRow is one mode of the ablation.
type AntonymRow struct {
	Mode       AntonymMode
	Statements int64 // statements attributed to tracked properties
	Precision  float64
	Coverage   float64
	F1         float64
}

// AntonymAblation quantifies the Section-4 design decision: on a corpus
// where a share of negative opinions is voiced through antonyms ("Palo
// Alto is small") and controversial entities attract "not small"
// statements, compare ignoring antonyms (the paper's choice) against
// folding them into negations, strictly or naively.
func AntonymAblation(cfg WorldConfig, antonymFrac float64) []AntonymRow {
	cfg = cfg.withDefaults()
	base := kb.Default(cfg.Seed)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	specs := corpus.Table2Specs()
	snap := corpus.NewGenerator(base, specs, corpus.Config{
		Seed:        cfg.Seed + 100,
		Scale:       cfg.Scale,
		AntonymFrac: antonymFrac,
	}).Generate()

	baseRun := pipeline.Run(snap.Documents, base, lex, pipeline.Config{Rho: cfg.Rho})
	cases := crowd.CollectCases(base, specs, cfg.EntitiesPerCombo, cfg.WorkerPanel, cfg.Seed+200)
	w := &World{KB: base, Lex: lex, Snapshot: snap, Result: baseRun, Cases: cases}

	score := func(res *pipeline.Result) AntonymRow {
		m := eval.Score(w.EvalCasesFor(res), "Surveyor")
		return AntonymRow{
			Statements: res.TotalStatements,
			Precision:  m.Precision,
			Coverage:   m.Coverage,
			F1:         m.F1,
		}
	}

	rows := make([]AntonymRow, 0, 3)
	r := score(baseRun)
	r.Mode = AntonymIgnore
	rows = append(rows, r)

	resolver := evidence.PrimaryByVolume(baseRun.Store, lex.Antonyms)
	for _, mode := range []AntonymMode{AntonymStrict, AntonymNaive} {
		folded := evidence.FoldAntonyms(baseRun.Store, resolver, mode == AntonymNaive)
		res := pipeline.ReduceStore(folded, base, pipeline.Config{Rho: cfg.Rho}, pipeline.ReduceStats{})
		r := score(res)
		r.Mode = mode
		rows = append(rows, r)
	}
	return rows
}

// FormatAntonymAblation renders the comparison.
func FormatAntonymAblation(rows []AntonymRow) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tstatements\tcoverage\tprecision\tF1")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\n",
			r.Mode, r.Statements, r.Coverage, r.Precision, r.F1)
	}
	tw.Flush()
	return b.String()
}

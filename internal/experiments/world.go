// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7 plus the empirical studies of Section 2 and
// Appendices A, B, D) and the design ablations on the synthetic web
// snapshot. Each experiment returns a structured result that
// cmd/experiments renders.
package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crowd"
	"repro/internal/eval"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/internal/pipeline"
)

// workerPanel is the paper's number of AMT workers per test case.
const workerPanel = 20

// MethodNames in report order.
var MethodNames = []string{"Majority Vote", "Scaled Majority Vote", "WebChild", "Surveyor"}

// World bundles everything the Section-7 experiments share: the
// evaluation knowledge base, the generated snapshot, the V4 pipeline run,
// and the simulated AMT test cases.
type World struct {
	KB       *kb.KB
	Lex      *lexicon.Lexicon
	Snapshot *corpus.Snapshot
	Result   *pipeline.Result
	Cases    []crowd.TestCase
}

// WorldConfig controls world construction.
type WorldConfig struct {
	Seed  uint64
	Scale float64 // corpus volume multiplier (1 = experiment scale)
	// Rho is the modelling threshold; 0 uses a scale-adjusted default.
	Rho int64
	// EntitiesPerCombo is how many test entities the AMT simulation
	// draws per combination (the paper used 20: 500 test cases).
	EntitiesPerCombo int
	// UniformCases samples test entities uniformly (the Appendix-D random
	// protocol) instead of prominence-weighted (the Section-7.3 curated
	// protocol).
	UniformCases bool
}

func (c WorldConfig) withDefaults() WorldConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Rho == 0 {
		c.Rho = int64(40 * c.Scale)
		if c.Rho < 5 {
			c.Rho = 5
		}
	}
	if c.EntitiesPerCombo == 0 {
		c.EntitiesPerCombo = 20
	}
	return c
}

// BuildEvalWorld constructs the Section-7 evaluation world: the default
// knowledge base, the 25 Table-2 combinations, a generated snapshot, the
// V4 pipeline run, and 500 simulated AMT test cases.
func BuildEvalWorld(cfg WorldConfig) *World {
	cfg = cfg.withDefaults()
	base := kb.Default(cfg.Seed)
	lex := lexicon.Default()
	base.RegisterLexicon(lex)
	specs := corpus.Table2Specs()
	snap := corpus.NewGenerator(base, specs, corpus.Config{
		Seed:  cfg.Seed + 100,
		Scale: cfg.Scale,
	}).Generate()
	res := pipeline.Run(snap.Documents, base, lex, pipeline.Config{Rho: cfg.Rho})
	cases := crowd.CollectCases(base, specs, cfg.EntitiesPerCombo, workerPanel, cfg.Seed+200)
	return &World{KB: base, Lex: lex, Snapshot: snap, Result: res, Cases: cases}
}

// EvalCases converts the crowd test cases into eval cases with the
// predictions of all four methods attached. Tied panels are dropped, as
// in Section 7.3.
func (w *World) EvalCases() []eval.Case {
	return w.EvalCasesFor(w.Result)
}

// EvalCasesFor builds eval cases against an alternative pipeline run
// (e.g. one produced under a different extraction pattern version).
func (w *World) EvalCasesFor(res *pipeline.Result) []eval.Case {
	kept := crowd.DropTies(w.Cases)
	smv := baselines.NewScaledMajorityVote(res.Store)
	wc := baselines.NewWebChild(res.Store, 2)
	out := make([]eval.Case, 0, len(kept))
	for _, tc := range kept {
		counts := res.Store.Get(evidence.Key{Entity: tc.Entity, Property: tc.Property})
		preds := map[string]core.Opinion{
			"Majority Vote":        baselines.MajorityVote{}.Decide(counts.Pos, counts.Neg),
			"Scaled Majority Vote": smv.Decide(counts.Pos, counts.Neg),
			"WebChild":             wc.DecideFor(tc.Entity, tc.Property),
			"Surveyor":             surveyorOpinion(res, w.KB, tc.Entity, tc.Property),
		}
		out = append(out, eval.Case{
			Truth:       tc.Judgement.Dominant() == core.OpinionPositive,
			Agreement:   tc.Judgement.Agreement(),
			Predictions: preds,
		})
	}
	return out
}

func surveyorOpinion(res *pipeline.Result, base *kb.KB, e kb.EntityID, property string) core.Opinion {
	op, ok := res.Opinion(base.Get(e).Type, e, property)
	if !ok {
		return core.OpinionUnsolved
	}
	return op.Opinion
}

// RunVersion re-runs the pipeline over the snapshot under a different
// pattern version (for the Table-4 ablation).
func (w *World) RunVersion(v extract.Version, rho int64) *pipeline.Result {
	return pipeline.Run(w.Snapshot.Documents, w.KB, w.Lex, pipeline.Config{
		Rho: rho, Version: v,
	})
}

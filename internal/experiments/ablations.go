package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/stats"
	"repro/internal/tagger"
)

// AblationsResult measures what each design choice DESIGN.md calls out
// buys in quality: accuracy under each group's own model and under one
// model fitted to all groups (Section 5.1); log-likelihood per entity
// under a coarse, the default and a dense pA grid; the share of modelled
// entities decided without a statement; V4 statements per entity-linking
// sentence with the intrinsicness checks on and off; and the largest
// |Poisson − exact trinomial| posterior over the Example-3 tuples and two
// near the decision boundary at n = 10⁶.
type AblationsResult struct {
	PerGroupAccuracy, GlobalAccuracy float64
	GridPoints                       [3]int
	GridLogLik                       [3]float64
	ZeroEvidenceShare                float64
	LinkingSentences                 int
	ChecksOn, ChecksOff              float64
	PoissonGap                       float64
}

var example3 = core.Params{PA: 0.9, NpPlus: 100, NpMinus: 5} // the paper's Example 3

// Ablations runs every ablation on w, except the pA grid, which fits
// 2,000 generated tuples (pA 0.88, np+S 40, np−S 3, seed 7).
func Ablations(w *World) AblationsResult {
	var r AblationsResult
	r.PerGroupAccuracy, r.GlobalAccuracy, r.ZeroEvidenceShare = scoreGroups(w)
	rng := stats.NewRNG(7)
	opinions := make([]bool, 2000)
	for i := range opinions {
		opinions[i] = rng.Bernoulli(0.3)
	}
	tuples := core.GenerateTuples(core.Params{PA: 0.88, NpPlus: 40, NpMinus: 3}, opinions, rng)
	var dense []float64
	for pa := 0.51; pa < 0.999; pa += 0.011 {
		dense = append(dense, pa)
	}
	for i, grid := range [][]float64{{0.6, 0.8, 0.95}, core.DefaultPAGrid(), dense} {
		cfg := core.DefaultEMConfig()
		cfg.PAGrid = grid
		m, _ := core.FitEM(tuples, cfg)
		r.GridPoints[i], r.GridLogLik[i] = len(grid), m.LogLikelihood(tuples)/float64(len(tuples))
	}

	// Every entity-linking sentence, extracted once under V4 and once
	// under V4 without the intrinsicness checks.
	pt, dp, et := pos.New(w.Lex), depparse.New(w.Lex), tagger.New(w.KB, w.Lex)
	exOn := extract.NewVersion(w.Lex, extract.V4)
	exOff := extract.New(w.Lex, extract.Config{UseAmod: true, UseAcomp: true, ToBeOnly: true})
	nOn, nOff := 0, 0
	for _, d := range w.Snapshot.Documents {
		sents, _ := token.SplitSentencesInto(nil, nil, d.Text)
		for _, sent := range sents {
			tagged := pt.TagInto(nil, sent)
			mentions := et.TagInto(nil, new(tagger.Scratch), tagged)
			if len(mentions) == 0 {
				continue
			}
			r.LinkingSentences++
			tree := dp.ParseInto(new(depparse.Scratch), tagged)
			nOn += len(exOn.ExtractInto(nil, tree, mentions))
			nOff += len(exOff.ExtractInto(nil, tree, mentions))
		}
	}
	r.ChecksOn, r.ChecksOff = float64(nOn)/float64(r.LinkingSentences), float64(nOff)/float64(r.LinkingSentences)

	// ⟨35,0⟩ and ⟨40,5⟩ sit near the decision boundary, where neither
	// posterior saturates to 0 or 1 and both branches of the exact form count.
	m := core.Model{Params: example3}
	for _, c := range []core.Tuple{{Pos: 0, Neg: 0}, {Pos: 60, Neg: 3}, {Pos: 10, Neg: 10}, {Pos: 90, Neg: 1},
		{Pos: 35, Neg: 0}, {Pos: 40, Neg: 5}} {
		r.PoissonGap = max(r.PoissonGap, math.Abs(m.PosteriorPositive(c)-m.PosteriorPositiveExact(c, 1_000_000)))
	}
	return r
}

// scoreGroups scores the modelled entities of groups with a generating
// spec under their own models and under one global model, and counts the
// zero-evidence decisions of all groups.
func scoreGroups(w *World) (perGroup, global, zeroShare float64) {
	var all []core.Tuple
	var truths []bool
	total, zero, correctP := 0, 0, 0
	for gi := range w.Result.Groups {
		g := &w.Result.Groups[gi]
		si := slices.IndexFunc(w.Snapshot.Specs, func(s corpus.Spec) bool {
			return s.Type == g.Key.Type && s.Property == g.Key.Property
		})
		for _, eo := range g.Entities {
			total++
			if eo.Pos == 0 && eo.Neg == 0 && eo.Opinion != core.OpinionUnsolved {
				zero++
			}
			if si < 0 {
				continue
			}
			c := core.Tuple{Pos: int(eo.Pos), Neg: int(eo.Neg)}
			truth := w.Snapshot.Specs[si].LatentTruth(w.KB.Get(eo.Entity), "com")
			all, truths = append(all, c), append(truths, truth)
			if (core.Decide(g.Model.PosteriorPositive(c)) == core.OpinionPositive) == truth {
				correctP++
			}
		}
	}
	gm, _ := core.FitEM(all, core.DefaultEMConfig())
	correctG := 0
	for i, c := range all {
		if (core.Decide(gm.PosteriorPositive(c)) == core.OpinionPositive) == truths[i] {
			correctG++
		}
	}
	n := float64(len(all))
	return float64(correctP) / n, float64(correctG) / n, float64(zero) / float64(total)
}

// Format renders one row per ablation.
func (r AblationsResult) Format() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ablation\tresult")
	fmt.Fprintf(tw, "per-group vs global parameters\taccuracy %.4f vs %.4f\n", r.PerGroupAccuracy, r.GlobalAccuracy)
	fmt.Fprintf(tw, "pA grid %d/%d/%d points\tlog-likelihood/entity %.3f / %.3f / %.3f\n",
		r.GridPoints[0], r.GridPoints[1], r.GridPoints[2], r.GridLogLik[0], r.GridLogLik[1], r.GridLogLik[2])
	fmt.Fprintf(tw, "zero-evidence opinions\tshare %.4f of modelled entities\n", r.ZeroEvidenceShare)
	fmt.Fprintf(tw, "intrinsicness checks on vs off\t%.2f vs %.2f statements/sentence over %d linking sentences\n",
		r.ChecksOn, r.ChecksOff, r.LinkingSentences)
	fmt.Fprintf(tw, "Poisson vs exact trinomial\tmax |posterior gap| %.1e at n = 10^6\n", r.PoissonGap)
	tw.Flush()
	return b.String()
}

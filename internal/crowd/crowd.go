// Package crowd simulates the Amazon Mechanical Turk ground-truth
// collection of Section 7.3: panels of workers voting on whether a
// property applies to an entity. Each worker's vote is an independent
// Bernoulli draw from the latent positive-opinion fraction of the
// population (pA* when the latent dominant opinion is positive, 1−pA*
// otherwise), so worker agreement distributions (Figure 11) and the
// precision-vs-agreement analysis (Figure 12) are reproducible against a
// known truth.
package crowd

import (
	"math"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/stats"
)

// Judgement is the outcome of one worker panel on one entity-property
// pair.
type Judgement struct {
	PositiveVotes int
	Workers       int
}

// Dominant returns the panel's majority opinion; an exact tie is
// unsolved (the paper removed the 4% of tied cases from its test set).
func (j Judgement) Dominant() core.Opinion {
	neg := j.Workers - j.PositiveVotes
	switch {
	case j.PositiveVotes > neg:
		return core.OpinionPositive
	case neg > j.PositiveVotes:
		return core.OpinionNegative
	default:
		return core.OpinionUnsolved
	}
}

// Agreement returns the number of workers sharing the majority opinion
// (the paper's inter-worker agreement measure; 20 = perfect agreement).
func (j Judgement) Agreement() int {
	neg := j.Workers - j.PositiveVotes
	if j.PositiveVotes > neg {
		return j.PositiveVotes
	}
	return neg
}

// IsTie reports whether the panel split exactly evenly.
func (j Judgement) IsTie() bool { return j.Workers == 2*j.PositiveVotes }

// Panel simulates worker panels. Not safe for concurrent use.
type Panel struct {
	workers int
	rng     *stats.RNG
}

// NewPanel returns a panel of the given size (the paper used 20 workers).
func NewPanel(workers int, seed uint64) *Panel {
	return &Panel{workers: workers, rng: stats.NewRNG(seed)}
}

// Collect asks every worker once: each votes positive with probability
// posFraction.
func (p *Panel) Collect(posFraction float64) Judgement {
	return Judgement{
		PositiveVotes: p.rng.Binomial(p.workers, posFraction),
		Workers:       p.workers,
	}
}

// TestCase is one evaluated entity-property pair with its crowd judgement
// and the latent truth it was sampled from.
type TestCase struct {
	Entity   kb.EntityID
	Type     string
	Property string
	// Judgement is the simulated AMT outcome.
	Judgement Judgement
	// LatentTruth is the generative dominant opinion (unknown to any
	// method; used for diagnostics only — the evaluation compares against
	// the crowd's Dominant(), as the paper does).
	LatentTruth bool
}

// CollectCases builds the evaluation test set: for each spec,
// entitiesPerCombo entities sampled with probability proportional to
// prominence — Section 7.3 picked entities "common in the query stream",
// i.e. well-known ones, not a uniform slice of the knowledge base — each
// judged by a fresh panel of the given size. Deterministic in seed.
func CollectCases(base *kb.KB, specs []corpus.Spec, entitiesPerCombo, workers int, seed uint64) []TestCase {
	return collectCases(base, specs, entitiesPerCombo, workers, seed, true)
}

// CollectCasesUniform samples entities uniformly instead — the Appendix-D
// protocol of random entities from the long tail.
func CollectCasesUniform(base *kb.KB, specs []corpus.Spec, entitiesPerCombo, workers int, seed uint64) []TestCase {
	return collectCases(base, specs, entitiesPerCombo, workers, seed, false)
}

func collectCases(base *kb.KB, specs []corpus.Spec, entitiesPerCombo, workers int, seed uint64, byProminence bool) []TestCase {
	rng := stats.NewRNG(seed)
	panel := NewPanel(workers, rng.Uint64())
	var cases []TestCase
	for si := range specs {
		spec := &specs[si]
		ids := base.OfType(spec.Type)
		if len(ids) == 0 {
			continue
		}
		n := entitiesPerCombo
		if n > len(ids) {
			n = len(ids)
		}
		picks := samplePicks(base, ids, n, rng, byProminence)
		for _, idx := range picks {
			e := base.Get(ids[idx])
			f := spec.LatentPosFraction(e, "com")
			cases = append(cases, TestCase{
				Entity:      e.ID,
				Type:        spec.Type,
				Property:    spec.Property,
				Judgement:   panel.Collect(f),
				LatentTruth: spec.LatentTruth(e, "com"),
			})
		}
	}
	return cases
}

// samplePicks draws n distinct indices into ids. With byProminence, the
// draw is weighted by each entity's prominence attribute (well-known
// entities are far more likely to be picked); otherwise uniform.
func samplePicks(base *kb.KB, ids []kb.EntityID, n int, rng *stats.RNG, byProminence bool) []int {
	weights := make([]float64, len(ids))
	total := 0.0
	for i, id := range ids {
		w := 1.0
		if byProminence {
			// Square-root damping: well-known entities dominate the picks
			// without crowding out recognisable mid-tier ones.
			w = math.Sqrt(base.Get(id).Attr("prominence", 0.5))
		}
		weights[i] = w
		total += w
	}
	picked := make([]bool, len(ids))
	var out []int
	for len(out) < n {
		u := rng.Float64() * total
		acc := 0.0
		idx := len(ids) - 1
		for i, w := range weights {
			acc += w
			if u < acc {
				idx = i
				break
			}
		}
		if picked[idx] {
			// Resample; as a bounded fallback take the next free slot.
			free := -1
			for j := 1; j <= len(ids); j++ {
				k := (idx + j) % len(ids)
				if !picked[k] {
					free = k
					break
				}
			}
			if free < 0 {
				break
			}
			if rng.Bernoulli(0.5) {
				idx = free
			} else {
				continue
			}
		}
		picked[idx] = true
		out = append(out, idx)
	}
	return out
}

// MeanAgreement returns the average worker agreement over the cases
// (the paper reports 17 of 20).
func MeanAgreement(cases []TestCase) float64 {
	if len(cases) == 0 {
		return 0
	}
	sum := 0
	for _, c := range cases {
		sum += c.Judgement.Agreement()
	}
	return float64(sum) / float64(len(cases))
}

// DropTies removes exactly-tied cases, as Section 7.3 does (4% of cases).
func DropTies(cases []TestCase) []TestCase {
	out := cases[:0:0]
	for _, c := range cases {
		if !c.Judgement.IsTie() {
			out = append(out, c)
		}
	}
	return out
}

package core

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// synthTuples draws tuples from the generative model with a given positive
// fraction.
func synthTuples(t *testing.T, params Params, m int, posFrac float64, seed uint64) ([]Tuple, []bool) {
	t.Helper()
	rng := stats.NewRNG(seed)
	opinions := make([]bool, m)
	for i := range opinions {
		opinions[i] = rng.Bernoulli(posFrac)
	}
	return GenerateTuples(params, opinions, rng), opinions
}

func TestFitEMRecoversParameters(t *testing.T) {
	truth := Params{PA: 0.88, NpPlus: 60, NpMinus: 4}
	tuples, _ := synthTuples(t, truth, 2000, 0.4, 11)
	model, trace := FitEM(tuples, DefaultEMConfig())
	p := model.Params
	if math.Abs(p.PA-truth.PA) > 0.06 {
		t.Errorf("pA = %v, want ≈ %v", p.PA, truth.PA)
	}
	if math.Abs(p.NpPlus-truth.NpPlus)/truth.NpPlus > 0.15 {
		t.Errorf("np+S = %v, want ≈ %v", p.NpPlus, truth.NpPlus)
	}
	if math.Abs(p.NpMinus-truth.NpMinus)/truth.NpMinus > 0.3 {
		t.Errorf("np−S = %v, want ≈ %v", p.NpMinus, truth.NpMinus)
	}
	if trace.Iterations == 0 {
		t.Error("trace should record iterations")
	}
}

func TestFitEMRecoversOpinions(t *testing.T) {
	truth := Params{PA: 0.9, NpPlus: 50, NpMinus: 6}
	tuples, opinions := synthTuples(t, truth, 1500, 0.3, 13)
	model, _ := FitEM(tuples, DefaultEMConfig())
	correct, decided := 0, 0
	for i, c := range tuples {
		op := Decide(model.PosteriorPositive(c))
		if op == OpinionUnsolved {
			continue
		}
		decided++
		if (op == OpinionPositive) == opinions[i] {
			correct++
		}
	}
	if decided < len(tuples)*95/100 {
		t.Fatalf("only %d/%d decided", decided, len(tuples))
	}
	acc := float64(correct) / float64(decided)
	if acc < 0.95 {
		t.Fatalf("opinion recovery accuracy = %v, want ≥ 0.95", acc)
	}
}

// emSweepTolerance is the largest log-likelihood decrease a single EM step
// may show. The M-step searches pA on a grid, so this is a generalised EM
// and monotonicity is a property to test, not assume. Sizing for it ran
// 54,000 fits over the grid below with 400 seeds (and 5,400 more on a
// two-point pA grid at tolerance 1e-12): no step fell by more than 1e-9
// (1.6e-10 on the subset below — summation rounding) and no fit on the
// default grid hit the iteration cap, so FitEM's `ll-prevLL < Tolerance`
// exit has never been seen to label a real decrease Converged.
const emSweepTolerance = 1e-9

// TestFitEMLogLikelihoodNonDecreasing sweeps generating parameters, group
// size and latent positive share — the polarity-bias scenario, its
// inverse, and sparse long-tail groups included — and requires every fit
// to converge inside the cap with no step letting the observed-data
// log-likelihood fall.
func TestFitEMLogLikelihoodNonDecreasing(t *testing.T) {
	rates := [][2]float64{{10, 10}, {30, 3}, {3, 30}, {80, 3}, {1, 0.2}} // np+S*, np−S*
	seed := uint64(0)
	for _, pa := range []float64{0.6, 0.8, 0.95} {
		for _, np := range rates {
			truth := Params{PA: pa, NpPlus: np[0], NpMinus: np[1]}
			for _, m := range []int{20, 100, 2000} {
				for _, posFrac := range []float64{0.2, 0.5, 0.8} {
					for rep := 0; rep < 4; rep++ {
						seed++
						tuples, _ := synthTuples(t, truth, m, posFrac, seed)
						_, trace := FitEM(tuples, DefaultEMConfig())
						if !trace.Converged {
							t.Errorf("%+v m=%d pos=%.1f seed=%d: hit the %d-iteration cap", truth, m, posFrac, seed, trace.Iterations)
						}
						for i := 1; i < len(trace.LogLikelihoods); i++ {
							if drop := trace.LogLikelihoods[i-1] - trace.LogLikelihoods[i]; drop > emSweepTolerance {
								t.Errorf("%+v m=%d pos=%.1f seed=%d: log-likelihood fell by %g at iter %d (%v -> %v)",
									truth, m, posFrac, seed, drop, i, trace.LogLikelihoods[i-1], trace.LogLikelihoods[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestFitEMConverges(t *testing.T) {
	truth := Params{PA: 0.9, NpPlus: 40, NpMinus: 2}
	tuples, _ := synthTuples(t, truth, 500, 0.5, 19)
	_, trace := FitEM(tuples, DefaultEMConfig())
	if !trace.Converged {
		t.Fatalf("EM did not converge in %d iterations", trace.Iterations)
	}
}

func TestFitEMPolarityBiasScenario(t *testing.T) {
	// The Section-2 big-cities shape: few entities positive, positive
	// statements an order of magnitude more common than negative ones,
	// and many zero-evidence entities. MV fails here; the model must not.
	truth := Params{PA: 0.92, NpPlus: 80, NpMinus: 3}
	tuples, opinions := synthTuples(t, truth, 461, 0.12, 23)
	model, _ := FitEM(tuples, DefaultEMConfig())

	// Zero-evidence entities decided negative.
	if got := Decide(model.PosteriorPositive(Tuple{})); got != OpinionNegative {
		t.Fatalf("zero evidence -> %v, want negative", got)
	}
	// High accuracy on the latent truth.
	correct := 0
	for i, c := range tuples {
		if (Decide(model.PosteriorPositive(c)) == OpinionPositive) == opinions[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tuples)); acc < 0.93 {
		t.Fatalf("accuracy = %v", acc)
	}
}

func TestFitEMEmptyInput(t *testing.T) {
	model, trace := FitEM(nil, DefaultEMConfig())
	if !model.Params.Valid() && trace.Iterations == 0 {
		t.Fatal("FitEM on empty input should still return something sane")
	}
	p := model.PosteriorPositive(Tuple{})
	if math.IsNaN(p) {
		t.Fatal("posterior NaN on empty-fit model")
	}
}

func TestFitEMAllZeroTuples(t *testing.T) {
	tuples := make([]Tuple, 100)
	model, _ := FitEM(tuples, DefaultEMConfig())
	p := model.PosteriorPositive(Tuple{})
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Fatalf("posterior = %v", p)
	}
}

func TestFitEMSingleEntity(t *testing.T) {
	model, _ := FitEM([]Tuple{{5, 1}}, DefaultEMConfig())
	p := model.PosteriorPositive(Tuple{5, 1})
	if math.IsNaN(p) {
		t.Fatal("NaN posterior for single-entity fit")
	}
}

func TestFitEMRespectsInit(t *testing.T) {
	truth := Params{PA: 0.9, NpPlus: 45, NpMinus: 5}
	tuples, _ := synthTuples(t, truth, 1000, 0.4, 29)
	cfg := DefaultEMConfig()
	cfg.Init = Params{PA: 0.7, NpPlus: 10, NpMinus: 10}
	model, _ := FitEM(tuples, cfg)
	// Even from a poor init, EM should walk to the right neighbourhood.
	if math.Abs(model.Params.NpPlus-truth.NpPlus)/truth.NpPlus > 0.2 {
		t.Fatalf("np+S = %v from custom init", model.Params.NpPlus)
	}
}

func TestFitEMIterationCapRespected(t *testing.T) {
	truth := Params{PA: 0.85, NpPlus: 20, NpMinus: 2}
	tuples, _ := synthTuples(t, truth, 300, 0.5, 31)
	cfg := DefaultEMConfig()
	cfg.MaxIterations = 3
	cfg.Tolerance = 0 // force full loop
	_, trace := FitEM(tuples, cfg)
	if trace.Iterations > 3 {
		t.Fatalf("iterations = %d, cap was 3", trace.Iterations)
	}
}

func TestMStepClosedFormMatchesGridOptimum(t *testing.T) {
	// For fixed pA the closed-form np±S must beat nearby perturbations.
	truth := Params{PA: 0.88, NpPlus: 35, NpMinus: 4}
	tuples, _ := synthTuples(t, truth, 600, 0.5, 37)
	model := Model{Params: truth}
	g := aggregates(tuples, model)
	best, ok := maximize(g, []float64{0.88})
	if !ok {
		t.Fatal("maximize failed")
	}
	qBest := qPrime(g, best)
	for _, scale := range []float64{0.9, 0.95, 1.05, 1.1} {
		alt := best
		alt.NpPlus *= scale
		if q := qPrime(g, alt); q > qBest+1e-9 {
			t.Fatalf("perturbed np+S (×%v) beats closed form: %v > %v", scale, q, qBest)
		}
		alt = best
		alt.NpMinus *= scale
		if q := qPrime(g, alt); q > qBest+1e-9 {
			t.Fatalf("perturbed np−S (×%v) beats closed form: %v > %v", scale, q, qBest)
		}
	}
}

func TestFitAndClassifyCoversAllEntities(t *testing.T) {
	truth := Params{PA: 0.9, NpPlus: 25, NpMinus: 2}
	tuples, _ := synthTuples(t, truth, 400, 0.3, 41)
	_, results, _ := FitAndClassify(tuples, DefaultEMConfig())
	if len(results) != len(tuples) {
		t.Fatalf("results = %d, tuples = %d", len(results), len(tuples))
	}
	unsolved := 0
	for _, r := range results {
		if r.Opinion == OpinionUnsolved {
			unsolved++
		}
	}
	// The model should decide nearly everything (Table 3: coverage 0.966).
	if unsolved > len(results)/20 {
		t.Fatalf("unsolved = %d of %d", unsolved, len(results))
	}
}

func TestEMScalingLinearInEntities(t *testing.T) {
	// One iteration's work is O(m): doubling entities should roughly
	// double aggregate time, and crucially the per-iteration cost must not
	// depend on the count magnitudes (mentions).
	truth := Params{PA: 0.9, NpPlus: 30, NpMinus: 3}
	small, _ := synthTuples(t, truth, 100, 0.5, 43)
	big := make([]Tuple, len(small))
	for i, c := range small {
		big[i] = Tuple{Pos: c.Pos * 1000, Neg: c.Neg * 1000} // 1000× mentions
	}
	cfg := DefaultEMConfig()
	cfg.MaxIterations = 5
	cfg.Tolerance = 0
	_, trSmall := FitEM(small, cfg)
	_, trBig := FitEM(big, cfg)
	if trSmall.Iterations != trBig.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", trSmall.Iterations, trBig.Iterations)
	}
}

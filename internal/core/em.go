package core

import (
	"math"

	"repro/internal/stats"
)

// EMConfig controls the expectation-maximization fit (Algorithm 2).
type EMConfig struct {
	// MaxIterations bounds the EM loop; the fit stops earlier when the
	// log-likelihood improvement drops below Tolerance.
	MaxIterations int
	// Tolerance is the minimum log-likelihood gain to keep iterating.
	Tolerance float64
	// PAGrid is the fixed set of pA values tried in the M-step (the paper
	// speeds up maximisation the same way). Values must lie in (0.5, 1].
	PAGrid []float64
	// Init seeds the first E-step. Zero value → heuristic init from data.
	Init Params
}

// DefaultEMConfig returns the configuration used throughout the
// experiments: 50 iterations max, 1e-6 tolerance, a 16-point pA grid.
func DefaultEMConfig() EMConfig {
	return EMConfig{
		MaxIterations: 50,
		Tolerance:     1e-6,
		PAGrid:        DefaultPAGrid(),
	}
}

// DefaultPAGrid returns the standard pA grid: 0.55 .. 0.99.
func DefaultPAGrid() []float64 {
	return []float64{0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.84, 0.88,
		0.91, 0.93, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995}
}

// Trace records the EM fit for diagnostics and the §7.1 timing analysis.
type Trace struct {
	Iterations     int
	LogLikelihoods []float64 // observed-data log-likelihood after each iteration
	Converged      bool
}

// FitEM learns the model parameters for one (type, property) combination
// from its evidence tuples (Algorithm 2). Each iteration is O(m) in the
// number of entities and independent of the number of statements, because
// both the E-step aggregates and the closed-form M-step work on the
// counters only.
func FitEM(tuples []Tuple, cfg EMConfig) (Model, Trace) {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	if len(cfg.PAGrid) == 0 {
		cfg.PAGrid = DefaultPAGrid()
	}
	params := cfg.Init
	if !params.Valid() || (params.NpPlus == 0 && params.NpMinus == 0) {
		params = heuristicInit(tuples)
	}

	var trace Trace
	model := Model{Params: params}
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		// E-step: responsibilities r+_i = Pr(Di=+ | E_i, θ).
		g := aggregates(tuples, model)

		// M-step: grid over pA, closed-form np+S / np−S for each.
		best, ok := maximize(g, cfg.PAGrid)
		if ok {
			model = Model{Params: best}
		}

		ll := model.LogLikelihood(tuples)
		trace.LogLikelihoods = append(trace.LogLikelihoods, ll)
		trace.Iterations = iter + 1
		if ll-prevLL < cfg.Tolerance && iter > 0 {
			trace.Converged = true
			break
		}
		prevLL = ll
	}
	return model, trace
}

// heuristicInit seeds EM from the data: assume entities with more positive
// than negative statements are positive, and moment-match the rates.
func heuristicInit(tuples []Tuple) Params {
	var posSum, negSum float64
	nPos := 0
	for _, c := range tuples {
		posSum += float64(c.Pos)
		negSum += float64(c.Neg)
		if c.Pos > c.Neg {
			nPos++
		}
	}
	m := float64(len(tuples))
	if m == 0 {
		return Params{PA: 0.8, NpPlus: 1, NpMinus: 1}
	}
	fracPos := float64(nPos) / m
	if fracPos < 0.05 {
		fracPos = 0.05
	}
	npPlus := posSum / (m * fracPos) // statements concentrate on positives
	if npPlus < 0.1 {
		npPlus = 0.1
	}
	npMinus := negSum / m
	if npMinus < 0.01 {
		npMinus = 0.01
	}
	return Params{PA: 0.8, NpPlus: npPlus, NpMinus: npMinus}
}

// emAggregates are the sufficient statistics of Section 6:
// g^{σ2}_{σ1} (expected statement counts by polarity and dominant opinion)
// and g_{σ1} (expected entity counts by dominant opinion).
type emAggregates struct {
	gpp, gnp float64 // g++ (pos stmts, pos entities), g−+ (neg stmts, pos entities)
	gpn, gnn float64 // g+− (pos stmts, neg entities), g−− (neg stmts, neg entities)
	gp, gn   float64 // g+ (expected #positive entities), g− (negative)
}

// aggregates runs the E-step and reduces the responsibilities into the
// sufficient statistics — a single O(m) pass with the model's log-rates
// hoisted out of the loop.
func aggregates(tuples []Tuple, m Model) emAggregates {
	rates := newPoissonRates(m.Params)
	var g emAggregates
	for _, c := range tuples {
		r := rates.posterior(c)
		g.gpp += float64(c.Pos) * r
		g.gnp += float64(c.Neg) * r
		g.gpn += float64(c.Pos) * (1 - r)
		g.gnn += float64(c.Neg) * (1 - r)
		g.gp += r
		g.gn += 1 - r
	}
	return g
}

// maximize evaluates the closed-form optimum of Q′ for each pA on the grid
// (Section 6):
//
//	np+S = (g++ + g+−) / (g− + pA·g+ − pA·g−)
//	np−S = (g−+ + g−−) / (g+ + pA·g− − pA·g+)
//
// and returns the grid point with the highest Q′.
func maximize(g emAggregates, paGrid []float64) (Params, bool) {
	bestQ := math.Inf(-1)
	var best Params
	found := false
	for _, pa := range paGrid {
		denomPlus := g.gn + pa*g.gp - pa*g.gn
		denomMinus := g.gp + pa*g.gn - pa*g.gp
		if denomPlus <= 0 || denomMinus <= 0 {
			continue
		}
		p := Params{
			PA:      pa,
			NpPlus:  (g.gpp + g.gpn) / denomPlus,
			NpMinus: (g.gnp + g.gnn) / denomMinus,
		}
		if !p.Valid() {
			continue
		}
		q := qPrime(g, p)
		if q > bestQ {
			bestQ = q
			best = p
			found = true
		}
	}
	return best, found
}

// qPrime evaluates Q′(θ) of Section 6 from the sufficient statistics:
//
//	Q′ = g++·log λ++ − g+·λ++ + g−+·log λ−+ − g+·λ−+
//	   + g+−·log λ+− − g−·λ+− + g−−·log λ−− − g−·λ−−
func qPrime(g emAggregates, p Params) float64 {
	lpp, lnp, lpn, lnn := p.Lambdas()
	q := 0.0
	q += xlog(g.gpp, lpp) - g.gp*lpp
	q += xlog(g.gnp, lnp) - g.gp*lnp
	q += xlog(g.gpn, lpn) - g.gn*lpn
	q += xlog(g.gnn, lnn) - g.gn*lnn
	return q
}

// xlog returns x·log(y) with the conventions x·log(0) = −Inf for x > 0 and
// 0·log(0) = 0.
func xlog(x, y float64) float64 {
	if x == 0 {
		return 0
	}
	if y <= 0 {
		return math.Inf(-1)
	}
	return x * math.Log(y)
}

// FitAndClassify is the per-group step of Algorithm 1: fit the model on
// the group's tuples, then classify every entity (including zero-evidence
// ones).
func FitAndClassify(tuples []Tuple, cfg EMConfig) (Model, []Result, Trace) {
	model, trace := FitEM(tuples, cfg)
	return model, model.Classify(tuples), trace
}

// FitAndClassifyInto is FitAndClassify with a caller-provided result
// buffer, for re-fit loops that process many groups (the EM worker pool,
// the incremental miner): results are appended to dst, which is usually
// resliced to dst[:0] between groups. The fit and every classification
// are bit-identical to FitAndClassify.
func FitAndClassifyInto(dst []Result, tuples []Tuple, cfg EMConfig) (Model, []Result, Trace) {
	model, trace := FitEM(tuples, cfg)
	return model, model.ClassifyInto(dst, tuples), trace
}

// GenerateTuples draws m evidence tuples from the model itself given the
// latent opinions — the exact generative process of Figure 8. Used by
// tests (parameter recovery) and the model-faithful corpus mode.
func GenerateTuples(params Params, opinions []bool, rng *stats.RNG) []Tuple {
	lpp, lnp, lpn, lnn := params.Lambdas()
	out := make([]Tuple, len(opinions))
	for i, pos := range opinions {
		if pos {
			out[i] = Tuple{Pos: rng.Poisson(lpp), Neg: rng.Poisson(lnp)}
		} else {
			out[i] = Tuple{Pos: rng.Poisson(lpn), Neg: rng.Poisson(lnn)}
		}
	}
	return out
}

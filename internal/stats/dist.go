package stats

import "math"

// logFactTable caches log(n!) for small n — evidence counters are almost
// always tiny, and Lgamma dominates the EM inner loop otherwise. Entries
// are computed by the exact same Lgamma call the fallback uses, so the
// cache is bit-identical to the uncached path.
var logFactTable = func() [256]float64 {
	var t [256]float64
	for i := range t {
		lg, _ := math.Lgamma(float64(i) + 1)
		t[i] = lg
	}
	return t
}()

// LogFactorial returns log(n!) using math.Lgamma. Exact to floating
// precision for all n >= 0.
func LogFactorial(n int) float64 {
	if n < 0 {
		panic("stats: LogFactorial of negative n")
	}
	if n < len(logFactTable) {
		return logFactTable[n]
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// LogPoissonPMF returns log Pr(X = k) for X ~ Poisson(lambda).
//
// The lambda == 0 boundary is handled explicitly: a Poisson with zero rate
// places all mass on k == 0. This case arises in the Surveyor model when a
// fitted emission probability collapses to zero (for example, no negative
// statement was ever observed for entities with positive dominant opinion).
func LogPoissonPMF(k int, lambda float64) float64 {
	if k < 0 {
		return math.Inf(-1)
	}
	if lambda <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(k)*math.Log(lambda) - lambda - LogFactorial(k)
}

// LogMultinomialTrinomialPMF returns log Pr(A = a, B = b) where (A, B,
// n-a-b) ~ Multinomial(n; pa, pb, 1-pa-pb). This is the exact distribution
// of the statement counters in the Surveyor model before the Poisson
// approximation (Section 5.2); it is retained for the ablation comparing the
// approximation against the exact posterior.
func LogMultinomialTrinomialPMF(a, b, n int, pa, pb float64) float64 {
	if a < 0 || b < 0 || a+b > n {
		return math.Inf(-1)
	}
	rest := 1 - pa - pb
	lp := LogFactorial(n) - LogFactorial(a) - LogFactorial(b) - LogFactorial(n-a-b)
	term := func(k int, p float64) float64 {
		if k == 0 {
			return 0
		}
		if p <= 0 {
			return math.Inf(-1)
		}
		return float64(k) * math.Log(p)
	}
	return lp + term(a, pa) + term(b, pb) + term(n-a-b, rest)
}

// LogSumExp returns log(sum_i exp(xs[i])) computed stably.
func LogSumExp(xs ...float64) float64 {
	maxv := math.Inf(-1)
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// Sigmoid returns 1/(1+exp(-x)).
func Sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

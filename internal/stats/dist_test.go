package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{0, 0, math.Log(2), math.Log(6), math.Log(24), math.Log(120)}
	for n, w := range want {
		if got := LogFactorial(n); math.Abs(got-w) > 1e-12 {
			t.Fatalf("LogFactorial(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestLogFactorialMonotoneProperty(t *testing.T) {
	f := func(n uint8) bool {
		return LogFactorial(int(n)+1) >= LogFactorial(int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// poissonPMF is Pr(X = k) for X ~ Poisson(lambda), off the log form the
// model evaluates.
func poissonPMF(k int, lambda float64) float64 { return math.Exp(LogPoissonPMF(k, lambda)) }

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 5, 20} {
		sum := 0.0
		for k := 0; k < 200; k++ {
			sum += poissonPMF(k, lambda)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Poisson(%v) PMF sums to %v", lambda, sum)
		}
	}
}

func TestPoissonPMFZeroLambda(t *testing.T) {
	if got := poissonPMF(0, 0); got != 1 {
		t.Fatalf("Pois(0;0) = %v, want 1", got)
	}
	if got := poissonPMF(3, 0); got != 0 {
		t.Fatalf("Pois(3;0) = %v, want 0", got)
	}
}

func TestLogPoissonPMFNegativeK(t *testing.T) {
	if got := LogPoissonPMF(-1, 2); !math.IsInf(got, -1) {
		t.Fatalf("LogPoissonPMF(-1) = %v, want -Inf", got)
	}
}

func TestPoissonPMFKnownValue(t *testing.T) {
	// Pois(2; 3) = 9 e^-3 / 2 = 0.2240418...
	want := 9 * math.Exp(-3) / 2
	if got := poissonPMF(2, 3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Pois(2;3) = %v, want %v", got, want)
	}
}

func TestTrinomialSumsToOne(t *testing.T) {
	n, pa, pb := 20, 0.2, 0.3
	sum := 0.0
	for a := 0; a <= n; a++ {
		for b := 0; a+b <= n; b++ {
			sum += math.Exp(LogMultinomialTrinomialPMF(a, b, n, pa, pb))
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("trinomial PMF sums to %v", sum)
	}
}

func TestTrinomialOutOfSupport(t *testing.T) {
	if got := LogMultinomialTrinomialPMF(15, 10, 20, 0.1, 0.1); !math.IsInf(got, -1) {
		t.Fatalf("out-of-support trinomial = %v, want -Inf", got)
	}
}

// The Poisson product should approximate the trinomial when n is large
// relative to the counts — the approximation the Surveyor model relies on
// (Section 5.2, citing McDonald 1980).
func TestPoissonApproximatesTrinomial(t *testing.T) {
	n := 100000
	pa, pb := 30.0/float64(n), 5.0/float64(n)
	for _, c := range []struct{ a, b int }{{0, 0}, {25, 3}, {40, 10}} {
		exact := LogMultinomialTrinomialPMF(c.a, c.b, n, pa, pb)
		approx := LogPoissonPMF(c.a, float64(n)*pa) + LogPoissonPMF(c.b, float64(n)*pb)
		if math.Abs(exact-approx) > 0.02 {
			t.Fatalf("counts (%d,%d): exact %v vs poisson %v", c.a, c.b, exact, approx)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp(math.Log(1), math.Log(2), math.Log(3))
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("LogSumExp = %v, want log 6", got)
	}
}

func TestLogSumExpAllNegInf(t *testing.T) {
	if got := LogSumExp(math.Inf(-1), math.Inf(-1)); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(-Inf,-Inf) = %v", got)
	}
}

func TestLogSumExpStability(t *testing.T) {
	// Without the max-shift this would overflow.
	got := LogSumExp(1000, 1000)
	want := 1000 + math.Log(2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("LogSumExp(1000,1000) = %v, want %v", got, want)
	}
}

func TestLogSumExpGEMaxProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 300 || math.Abs(b) > 300 {
			return true
		}
		return LogSumExp(a, b) >= math.Max(a, b)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if Sigmoid(10) < 0.999 || Sigmoid(-10) > 0.001 {
		t.Fatal("sigmoid tails wrong")
	}
}

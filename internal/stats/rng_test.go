package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeedNotDegenerate(t *testing.T) {
	r := NewRNG(0)
	var prev uint64
	constant := true
	for i := 0; i < 10; i++ {
		v := r.Uint64()
		if i > 0 && v != prev {
			constant = false
		}
		prev = v
	}
	if constant {
		t.Fatal("seed 0 produced a constant stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(3)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child produced %d identical draws", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 4)
		if v < -3 || v > 4 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if got := r.IntRange(5, 5); got != 5 {
		t.Fatalf("degenerate IntRange = %d, want 5", got)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", f)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(19)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, x := range xs {
		sum += x
	}
	if sum != 21 {
		t.Fatalf("shuffle changed multiset, sum = %d", sum)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(23)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20, 100, 500} {
		r := NewRNG(uint64(lambda * 100))
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		tol := 4 * math.Sqrt(lambda/n) * math.Sqrt(lambda) // generous
		if tol < 0.05 {
			tol = 0.05
		}
		if math.Abs(mean-lambda) > math.Max(tol, lambda*0.03) {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	r := NewRNG(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d", got)
	}
}

func TestBinomialMeanAndBounds(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{{10, 0.5}, {100, 0.01}, {1000, 0.02}, {1000, 0.6}}
	for _, c := range cases {
		r := NewRNG(uint64(c.n))
		const trials = 20000
		sum := 0
		for i := 0; i < trials; i++ {
			k := r.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d,%v) out of bounds: %d", c.n, c.p, k)
			}
			sum += k
		}
		mean := float64(sum) / trials
		want := float64(c.n) * c.p
		if math.Abs(mean-want) > math.Max(0.05, want*0.05) {
			t.Fatalf("Binomial(%d,%v) mean = %v, want ~%v", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := NewRNG(2)
	if got := r.Binomial(10, 0); got != 0 {
		t.Fatalf("Binomial(10,0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Fatalf("Binomial(10,1) = %d", got)
	}
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0,.5) = %d", got)
	}
}

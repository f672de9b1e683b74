package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

// percentile is the one-percentile form of Percentiles.
func percentile(xs []float64, p float64) float64 { return Percentiles(xs, []float64{p})[0] }

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := percentile(xs, 50); math.Abs(got-5) > 1e-12 {
		t.Fatalf("P50 of {0,10} = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentilesMatchesSingle(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8}
	ps := []float64{10, 25, 50, 75, 95}
	multi := Percentiles(xs, ps)
	for i, p := range ps {
		if single := percentile(xs, p); math.Abs(multi[i]-single) > 1e-12 {
			t.Fatalf("Percentiles[%v] = %v, Percentile = %v", p, multi[i], single)
		}
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return percentile(xs, p1) <= percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("Pearson with constant series = %v, want 0", got)
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if got := Pearson([]float64{1, 2}, []float64{1}); got != 0 {
		t.Fatalf("Pearson mismatched lengths = %v, want 0", got)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	r := NewRNG(44)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 1)
			ys[i] = r.Normal(0, 1)
		}
		c := Pearson(xs, ys)
		if c < -1-1e-9 || c > 1+1e-9 {
			t.Fatalf("Pearson out of [-1,1]: %v", c)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 10, 100, 1000}
	ys := []float64{1, 2, 3, 4} // monotone but nonlinear relation
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksSumProperty(t *testing.T) {
	// Ranks always sum to n(n+1)/2 regardless of ties.
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		n := len(xs)
		sum := 0.0
		for _, r := range Ranks(xs) {
			sum += r
		}
		return math.Abs(sum-float64(n*(n+1))/2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9, 1.5, -2}
	counts := Histogram(xs, 0, 1, 2)
	// -2 clamps to bin 0; 1.5 clamps to bin 1.
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("Histogram = %v", counts)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if got := Histogram([]float64{1, 2}, 5, 5, 3); got[0] != 0 {
		t.Fatalf("degenerate histogram = %v", got)
	}
}

func TestPercentileAgainstSort(t *testing.T) {
	r := NewRNG(55)
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if got := percentile(xs, 50); math.Abs(got-sorted[500]) > 1e-12 {
		t.Fatalf("median = %v, want %v", got, sorted[500])
	}
}

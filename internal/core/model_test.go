package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// paperParams are the parameters of Example 3: pA = 0.9, np+S = 100,
// np−S = 5, giving λ++ = 90, λ−+ = 0.5, λ−− = 4.5, λ+− = 10.
var paperParams = Params{PA: 0.9, NpPlus: 100, NpMinus: 5}

func TestLambdasExample3(t *testing.T) {
	lpp, lnp, lpn, lnn := paperParams.Lambdas()
	if math.Abs(lpp-90) > 1e-12 {
		t.Errorf("λ++ = %v, want 90", lpp)
	}
	if math.Abs(lnp-0.5) > 1e-12 {
		t.Errorf("λ−+ = %v, want 0.5", lnp)
	}
	if math.Abs(lnn-4.5) > 1e-12 {
		t.Errorf("λ−− = %v, want 4.5", lnn)
	}
	if math.Abs(lpn-10) > 1e-12 {
		t.Errorf("λ+− = %v, want 10", lpn)
	}
}

func TestPosteriorExample1(t *testing.T) {
	// The tuple ⟨60, 3⟩ of Example 1 must be classified positive.
	m := Model{Params: paperParams}
	p := m.PosteriorPositive(Tuple{Pos: 60, Neg: 3})
	if p <= 0.5 {
		t.Fatalf("Pr(+|60,3) = %v, want > 0.5", p)
	}
	if Decide(p) != OpinionPositive {
		t.Fatalf("Decide = %v", Decide(p))
	}
}

func TestPosteriorZeroEvidence(t *testing.T) {
	// With λ++ = 90, an entity nobody ever mentions is almost surely not
	// positive — the paper's "lack of evidence is evidence" inference.
	m := Model{Params: paperParams}
	p := m.PosteriorPositive(Tuple{})
	if p >= 0.01 {
		t.Fatalf("Pr(+|0,0) = %v, want ≈ 0", p)
	}
	if Decide(p) != OpinionNegative {
		t.Fatalf("zero-evidence decision = %v", Decide(p))
	}
}

func TestPosteriorManyNegatives(t *testing.T) {
	m := Model{Params: paperParams}
	p := m.PosteriorPositive(Tuple{Pos: 2, Neg: 8})
	if p >= 0.5 {
		t.Fatalf("Pr(+|2,8) = %v, want < 0.5", p)
	}
}

func TestPosteriorPolarityBias(t *testing.T) {
	// p+S ≫ p−S: a handful of positive statements should NOT trump the
	// bias the way majority vote would. ⟨6, 2⟩ with λ++ = 90 means a
	// positive entity would get ~90 positives; seeing only 6 is strong
	// evidence AGAINST positivity despite the 3:1 majority.
	m := Model{Params: paperParams}
	p := m.PosteriorPositive(Tuple{Pos: 6, Neg: 2})
	if p >= 0.5 {
		t.Fatalf("Pr(+|6,2) = %v — model should overrule the raw majority", p)
	}
}

func TestPosteriorInUnitIntervalProperty(t *testing.T) {
	m := Model{Params: paperParams}
	f := func(pos, neg uint8) bool {
		p := m.PosteriorPositive(Tuple{Pos: int(pos), Neg: int(neg)})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPosteriorMonotoneInPositives(t *testing.T) {
	// More positive statements, same negatives → posterior non-decreasing.
	m := Model{Params: paperParams}
	prev := 0.0
	for pos := 0; pos <= 120; pos += 5 {
		p := m.PosteriorPositive(Tuple{Pos: pos, Neg: 2})
		if p < prev-1e-9 {
			t.Fatalf("posterior decreased at pos=%d: %v -> %v", pos, prev, p)
		}
		prev = p
	}
	if prev < 0.99 {
		t.Fatalf("posterior at 120 positives = %v, want ≈ 1", prev)
	}
}

func TestPosteriorExactMatchesPoissonForLargeN(t *testing.T) {
	m := Model{Params: paperParams}
	n := 1_000_000
	// ⟨35,0⟩ and ⟨40,5⟩ sit near the decision boundary, where neither
	// posterior saturates to 0 or 1 and both branches of the exact form count.
	for _, c := range []Tuple{{0, 0}, {60, 3}, {10, 10}, {90, 1}, {35, 0}, {40, 5}} {
		approx := m.PosteriorPositive(c)
		exact := m.PosteriorPositiveExact(c, n)
		if math.Abs(approx-exact) > 1e-3 {
			t.Fatalf("tuple %+v: poisson %v vs exact %v", c, approx, exact)
		}
	}
}

func TestDecide(t *testing.T) {
	if Decide(0.7) != OpinionPositive || Decide(0.3) != OpinionNegative {
		t.Fatal("Decide thresholds wrong")
	}
	if Decide(0.5) != OpinionUnsolved {
		t.Fatal("Decide(0.5) should be unsolved")
	}
}

func TestOpinionString(t *testing.T) {
	if OpinionPositive.String() != "+" || OpinionNegative.String() != "-" ||
		OpinionUnsolved.String() != "N" {
		t.Fatal("Opinion.String mismatch")
	}
}

func TestParamsValid(t *testing.T) {
	cases := []struct {
		p    Params
		want bool
	}{
		{Params{PA: 0.9, NpPlus: 10, NpMinus: 1}, true},
		{Params{PA: 0.5, NpPlus: 10, NpMinus: 1}, false}, // pA must exceed 1/2
		{Params{PA: 1.01, NpPlus: 10, NpMinus: 1}, false},
		{Params{PA: 0.9, NpPlus: -1, NpMinus: 1}, false},
		{Params{PA: 0.9, NpPlus: math.NaN(), NpMinus: 1}, false},
		{Params{PA: 0.9, NpPlus: math.Inf(1), NpMinus: 1}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	m := Model{Params: paperParams}
	res := m.Classify([]Tuple{{90, 0}, {0, 5}, {0, 0}})
	if res[0].Opinion != OpinionPositive {
		t.Errorf("⟨90,0⟩ -> %v", res[0].Opinion)
	}
	if res[1].Opinion != OpinionNegative {
		t.Errorf("⟨0,5⟩ -> %v", res[1].Opinion)
	}
	if res[2].Opinion != OpinionNegative {
		t.Errorf("⟨0,0⟩ -> %v", res[2].Opinion)
	}
}

func TestLogLikelihoodFiniteAndOrdered(t *testing.T) {
	tuples := []Tuple{{80, 1}, {95, 0}, {2, 4}, {0, 6}, {0, 0}}
	good := Model{Params: paperParams}
	bad := Model{Params: Params{PA: 0.55, NpPlus: 1, NpMinus: 50}}
	llGood, llBad := good.LogLikelihood(tuples), bad.LogLikelihood(tuples)
	if math.IsNaN(llGood) || math.IsInf(llGood, 0) {
		t.Fatalf("llGood = %v", llGood)
	}
	if llGood <= llBad {
		t.Fatalf("true-ish params should fit better: %v vs %v", llGood, llBad)
	}
}

func TestGenerateTuplesMatchesRates(t *testing.T) {
	rng := stats.NewRNG(7)
	opinions := make([]bool, 4000)
	for i := range opinions {
		opinions[i] = i%2 == 0
	}
	tuples := GenerateTuples(paperParams, opinions, rng)
	var posSumP, negSumP float64 // over positive entities
	for i, c := range tuples {
		if opinions[i] {
			posSumP += float64(c.Pos)
			negSumP += float64(c.Neg)
		}
	}
	nPos := 2000.0
	if math.Abs(posSumP/nPos-90) > 2 {
		t.Fatalf("mean C+ for positive entities = %v, want ≈ 90", posSumP/nPos)
	}
	if math.Abs(negSumP/nPos-0.5) > 0.2 {
		t.Fatalf("mean C− for positive entities = %v, want ≈ 0.5", negSumP/nPos)
	}
}

package crowd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/stats"
)

func TestJudgementDominant(t *testing.T) {
	cases := []struct {
		pos, workers int
		want         core.Opinion
	}{
		{15, 20, core.OpinionPositive},
		{5, 20, core.OpinionNegative},
		{10, 20, core.OpinionUnsolved},
		{0, 20, core.OpinionNegative},
		{20, 20, core.OpinionPositive},
	}
	for _, c := range cases {
		j := Judgement{PositiveVotes: c.pos, Workers: c.workers}
		if got := j.Dominant(); got != c.want {
			t.Errorf("Dominant(%d/%d) = %v, want %v", c.pos, c.workers, got, c.want)
		}
	}
}

func TestJudgementAgreement(t *testing.T) {
	if got := (Judgement{PositiveVotes: 15, Workers: 20}).Agreement(); got != 15 {
		t.Errorf("agreement = %d, want 15", got)
	}
	if got := (Judgement{PositiveVotes: 3, Workers: 20}).Agreement(); got != 17 {
		t.Errorf("agreement = %d, want 17", got)
	}
	if got := (Judgement{PositiveVotes: 10, Workers: 20}).Agreement(); got != 10 {
		t.Errorf("tie agreement = %d, want 10", got)
	}
}

func TestJudgementIsTie(t *testing.T) {
	if !(Judgement{PositiveVotes: 10, Workers: 20}).IsTie() {
		t.Error("10/20 should tie")
	}
	if (Judgement{PositiveVotes: 11, Workers: 20}).IsTie() {
		t.Error("11/20 is not a tie")
	}
}

func TestPanelCollectFrequencies(t *testing.T) {
	p := NewPanel(20, 7)
	// Strong latent agreement: panels should mostly agree.
	sumPos := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		sumPos += p.Collect(0.9).PositiveVotes
	}
	mean := float64(sumPos) / trials
	if math.Abs(mean-18) > 0.3 {
		t.Fatalf("mean positive votes = %v, want ≈ 18", mean)
	}
}

func TestPanelDeterministic(t *testing.T) {
	a, b := NewPanel(20, 3), NewPanel(20, 3)
	for i := 0; i < 100; i++ {
		if a.Collect(0.7) != b.Collect(0.7) {
			t.Fatal("panels with same seed diverged")
		}
	}
}

func evalWorld() (*kb.KB, []corpus.Spec) {
	base := kb.Default(1)
	return base, corpus.Table2Specs()
}

func TestCollectCases500(t *testing.T) {
	base, specs := evalWorld()
	cases := CollectCases(base, specs, 20, 20, 11)
	if len(cases) != 500 {
		t.Fatalf("cases = %d, want 500 (25 combos × 20 entities)", len(cases))
	}
	combos := map[string]bool{}
	for _, c := range cases {
		combos[c.Type+"/"+c.Property] = true
		if c.Judgement.Workers != 20 {
			t.Fatalf("workers = %d", c.Judgement.Workers)
		}
	}
	if len(combos) != 25 {
		t.Fatalf("combos = %d, want 25", len(combos))
	}
}

func TestCollectCasesHighMeanAgreement(t *testing.T) {
	// The paper observed mean agreement ≈ 17/20 with ≈180 perfect cases.
	base, specs := evalWorld()
	cases := CollectCases(base, specs, 20, 20, 13)
	sum, perfect := 0, 0
	for _, c := range cases {
		sum += c.Judgement.Agreement()
		if c.Judgement.Agreement() == 20 {
			perfect++
		}
	}
	if mean := float64(sum) / float64(len(cases)); mean < 15.5 || mean > 19 {
		t.Fatalf("mean agreement = %v, want ≈ 17", mean)
	}
	if perfect < 50 {
		t.Fatalf("perfect-agreement cases = %d, want a substantial block", perfect)
	}
}

func TestCollectCasesTiesRare(t *testing.T) {
	base, specs := evalWorld()
	cases := CollectCases(base, specs, 20, 20, 17)
	ties := 0
	for _, c := range cases {
		if c.Judgement.IsTie() {
			ties++
		}
	}
	// The paper saw 4%; allow up to 10%.
	if ties > len(cases)/10 {
		t.Fatalf("ties = %d of %d", ties, len(cases))
	}
	dropped := DropTies(cases)
	if len(dropped) != len(cases)-ties {
		t.Fatalf("DropTies kept %d, want %d", len(dropped), len(cases)-ties)
	}
	for _, c := range dropped {
		if c.Judgement.IsTie() {
			t.Fatal("DropTies left a tie")
		}
	}
}

func TestCrowdDominantTracksLatentTruth(t *testing.T) {
	// With pA* well above 1/2, the panel majority should usually equal the
	// latent truth — the premise that makes AMT a usable ground truth.
	base, specs := evalWorld()
	cases := CollectCases(base, specs, 20, 20, 19)
	agree := 0
	for _, c := range cases {
		if c.Judgement.IsTie() {
			continue
		}
		if (c.Judgement.Dominant() == core.OpinionPositive) == c.LatentTruth {
			agree++
		}
	}
	if rate := float64(agree) / float64(len(cases)); rate < 0.9 {
		t.Fatalf("crowd-vs-latent agreement = %v", rate)
	}
}

func TestSamplePicksDistinct(t *testing.T) {
	base := kb.New()
	for i := 0; i < 30; i++ {
		base.SetAttr(base.Add(kb.Entity{Name: fmt.Sprintf("e%d", i), Type: "thing"}), "prominence", 1/float64(i+1))
	}
	ids := base.OfType("thing")
	rng := stats.NewRNG(4)
	picks := samplePicks(base, ids, 20, rng, true)
	if len(picks) != 20 {
		t.Fatalf("picks = %d", len(picks))
	}
	seen := map[int]bool{}
	for _, p := range picks {
		if seen[p] {
			t.Fatalf("duplicate pick %d", p)
		}
		seen[p] = true
	}
}

func TestSamplePicksProminenceBias(t *testing.T) {
	base := kb.New()
	for i := 0; i < 100; i++ {
		prom := 0.01
		if i < 10 {
			prom = 1.0
		}
		base.SetAttr(base.Add(kb.Entity{Name: fmt.Sprintf("e%d", i), Type: "thing"}), "prominence", prom)
	}
	ids := base.OfType("thing")
	rng := stats.NewRNG(6)
	popularHits := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		for _, p := range samplePicks(base, ids, 5, rng, true) {
			if p < 10 {
				popularHits++
			}
		}
	}
	// 10 popular entities hold ~10/(10+90*0.1)=~53% of sqrt-damped mass;
	// require they clearly dominate the uniform share (10%).
	frac := float64(popularHits) / float64(trials*5)
	if frac < 0.3 {
		t.Fatalf("popular entities got only %.2f of picks", frac)
	}
	// Uniform sampling must NOT show that bias.
	uniformHits := 0
	for trial := 0; trial < trials; trial++ {
		for _, p := range samplePicks(base, ids, 5, rng, false) {
			if p < 10 {
				uniformHits++
			}
		}
	}
	uFrac := float64(uniformHits) / float64(trials*5)
	if uFrac > 0.2 {
		t.Fatalf("uniform sampling biased: %.2f", uFrac)
	}
}

func TestSamplePicksWantAll(t *testing.T) {
	base := kb.New()
	for i := 0; i < 5; i++ {
		base.Add(kb.Entity{Name: fmt.Sprintf("e%d", i), Type: "thing"})
	}
	ids := base.OfType("thing")
	rng := stats.NewRNG(8)
	picks := samplePicks(base, ids, 5, rng, true)
	if len(picks) != 5 {
		t.Fatalf("picks = %d, want all 5", len(picks))
	}
}

func TestCollectCasesUniformCoversTail(t *testing.T) {
	b := kb.NewBuilder(9)
	types := b.RandomDomains(5, 40)
	base := b.KB()
	specs := corpus.RandomSpecs(types, []string{"big", "cute"}, 9)
	prominenceOfPicks := func(cases []TestCase) float64 {
		sum := 0.0
		for _, c := range cases {
			sum += base.Get(c.Entity).Attr("prominence", 0)
		}
		return sum / float64(len(cases))
	}
	uniform := CollectCasesUniform(base, specs, 7, 20, 10)
	weighted := CollectCases(base, specs, 7, 20, 10)
	if len(uniform) != 35 || len(weighted) != 35 {
		t.Fatalf("cases: %d / %d", len(uniform), len(weighted))
	}
	if prominenceOfPicks(uniform) >= prominenceOfPicks(weighted) {
		t.Fatalf("uniform picks (%.3f) should be less prominent than weighted (%.3f)",
			prominenceOfPicks(uniform), prominenceOfPicks(weighted))
	}
}

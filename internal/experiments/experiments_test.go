package experiments

import (
	"strings"
	"testing"

	"repro/internal/extract"
)

// testWorld is shared across tests in this package (building it runs the
// full pipeline; ~1s at scale 0.5).
var testWorldCache *World

func testWorld(t *testing.T) *World {
	t.Helper()
	if testWorldCache == nil {
		testWorldCache = BuildEvalWorld(WorldConfig{Seed: 1, Scale: 0.5})
	}
	return testWorldCache
}

func metricsOf(t *testing.T, rows []MethodMetrics, method string) MethodMetrics {
	t.Helper()
	for _, r := range rows {
		if r.Method == method {
			return r
		}
	}
	t.Fatalf("method %q missing from %v", method, rows)
	return MethodMetrics{}
}

// TestTable3Shape verifies the headline result: Surveyor beats every
// baseline on coverage, precision, and F1, with roughly the paper's
// relative ordering.
func TestTable3Shape(t *testing.T) {
	res := Table3(testWorld(t))
	mv := metricsOf(t, res.Rows, "Majority Vote")
	smv := metricsOf(t, res.Rows, "Scaled Majority Vote")
	wc := metricsOf(t, res.Rows, "WebChild")
	sv := metricsOf(t, res.Rows, "Surveyor")

	if sv.Coverage < 0.95 {
		t.Errorf("Surveyor coverage = %.3f, want ≈ 0.97", sv.Coverage)
	}
	if sv.Coverage < mv.Coverage*1.5 {
		t.Errorf("Surveyor coverage (%.3f) should be ~2× MV (%.3f)", sv.Coverage, mv.Coverage)
	}
	if mv.Coverage > 0.7 {
		t.Errorf("MV coverage = %.3f — about half the pairs should be silent/tied (paper: 0.48)", mv.Coverage)
	}
	if sv.Precision <= wc.Precision || sv.Precision <= smv.Precision || sv.Precision <= mv.Precision {
		t.Errorf("Surveyor precision (%.2f) must beat all baselines (MV %.2f, SMV %.2f, WC %.2f)",
			sv.Precision, mv.Precision, smv.Precision, wc.Precision)
	}
	if sv.Precision < 0.7 {
		t.Errorf("Surveyor precision = %.2f, want ≥ 0.7 (paper: 0.77)", sv.Precision)
	}
	if !(sv.F1 > wc.F1 && wc.F1 > smv.F1 && smv.F1 >= mv.F1) {
		t.Errorf("F1 ordering broken: SURV %.2f, WC %.2f, SMV %.2f, MV %.2f",
			sv.F1, wc.F1, smv.F1, mv.F1)
	}
	// The polarity bias must visibly hurt majority voting. Our synthetic
	// statements carry clean polarity, so MV does not fall all the way to
	// the paper's 0.29, but it must trail Surveyor clearly.
	if mv.Precision > sv.Precision-0.04 {
		t.Errorf("MV precision (%.2f) too close to Surveyor's (%.2f)", mv.Precision, sv.Precision)
	}
	if out := res.Format(); !strings.Contains(out, "Surveyor") {
		t.Error("Format output incomplete")
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11(testWorld(t))
	if r.Mean < 15 || r.Mean > 19.5 {
		t.Errorf("mean agreement = %.1f, want ≈ 17", r.Mean)
	}
	if r.Perfect < 50 {
		t.Errorf("perfect-agreement cases = %d, want a large block (paper ≈ 180)", r.Perfect)
	}
	if r.Ties > 50 {
		t.Errorf("ties = %d, want ≈ 4%% of 500", r.Ties)
	}
	for i := 1; i < len(r.Cases); i++ {
		if r.Cases[i] > r.Cases[i-1] {
			t.Fatalf("threshold curve must be non-increasing: %v", r.Cases)
		}
	}
	if !strings.Contains(r.Format(), "agreement") {
		t.Error("Format output incomplete")
	}
}

// TestFig12Shape verifies that Surveyor precision rises with worker
// agreement while coverage stays near 1, and that it dominates baselines
// at every threshold.
func TestFig12Shape(t *testing.T) {
	r := Fig12(testWorld(t))
	if len(r.Points) < 5 {
		t.Fatalf("sweep points = %d", len(r.Points))
	}
	first := r.Points[0].ByMethod["Surveyor"]
	last := r.Points[len(r.Points)-1].ByMethod["Surveyor"]
	if last.Precision < first.Precision {
		t.Errorf("Surveyor precision should rise with agreement: %.2f -> %.2f",
			first.Precision, last.Precision)
	}
	if last.Precision < 0.8 {
		t.Errorf("Surveyor precision at perfect agreement = %.2f (paper: 0.87 at 19+)", last.Precision)
	}
	for _, pt := range r.Points {
		sv := pt.ByMethod["Surveyor"]
		mv := pt.ByMethod["Majority Vote"]
		if sv.Precision <= mv.Precision {
			t.Errorf("at threshold %d Surveyor (%.2f) should beat MV (%.2f)",
				pt.MinAgreement, sv.Precision, mv.Precision)
		}
		if sv.Coverage < 0.9 {
			t.Errorf("Surveyor coverage at threshold %d = %.2f", pt.MinAgreement, sv.Coverage)
		}
	}
	if !strings.Contains(r.Format(), "minAgree") {
		t.Error("Format output incomplete")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(testWorld(t), 30)
	// Figure 9(a): skew — most entities get few statements, the top ones
	// get many.
	n := len(r.Percentiles)
	median := r.StatementsPerEntity[6] // p50
	top := r.StatementsPerEntity[n-1]  // p100
	if top < median*3 {
		t.Errorf("statements/entity should be skewed: p50=%.1f p100=%.1f", median, top)
	}
	// Percentile curves are non-decreasing.
	for i := 1; i < n; i++ {
		if r.StatementsPerEntity[i] < r.StatementsPerEntity[i-1] ||
			r.StatementsPerCombo[i] < r.StatementsPerCombo[i-1] ||
			r.PropertiesPerType[i] < r.PropertiesPerType[i-1] {
			t.Fatal("percentile curves must be non-decreasing")
		}
	}
	if !strings.Contains(r.Format(), "percentile") {
		t.Error("Format output incomplete")
	}
}

func TestScaleStats(t *testing.T) {
	s := Scale(testWorld(t))
	if s.Statements == 0 || s.CombosModelled == 0 || s.OpinionsProduced == 0 {
		t.Fatalf("scale stats empty: %+v", s)
	}
	if s.CombosBeforeFilter < s.CombosModelled {
		t.Fatalf("filter increased combos: %+v", s)
	}
	if !strings.Contains(s.Format(), "opinions produced") {
		t.Error("Format output incomplete")
	}
}

// TestFig3Shape verifies the Section-2 study: the model's polarity
// correlates with population far better than majority vote, and decides
// every city including zero-evidence ones.
func TestFig3Shape(t *testing.T) {
	r := Fig3(WorldConfig{Seed: 1, Scale: 0.5, Rho: 20})
	if len(r.Rows) != 461 {
		t.Fatalf("rows = %d, want 461", len(r.Rows))
	}
	if r.ModelCorrelation < 0.6 {
		t.Errorf("model correlation = %.2f, want strong", r.ModelCorrelation)
	}
	if r.ModelCorrelation <= r.MVCorrelation {
		t.Errorf("model correlation (%.2f) must beat MV (%.2f)",
			r.ModelCorrelation, r.MVCorrelation)
	}
	if r.ModelDecided < 0.99 {
		t.Errorf("model decided %.2f of cities, want ≈ 1", r.ModelDecided)
	}
	if r.MVDecided > 0.9 {
		t.Errorf("MV decided %.2f — zero-evidence cities should be undecidable", r.MVDecided)
	}
	if r.ZeroEvidence == 0 {
		t.Error("expected zero-evidence cities in the 461 sample")
	}
	if !strings.Contains(r.Format(), "correlation") {
		t.Error("Format output incomplete")
	}
}

func TestFig13Shape(t *testing.T) {
	results := Fig13(WorldConfig{Seed: 1, Scale: 0.5, Rho: 15})
	if len(results) != 3 {
		t.Fatalf("studies = %d, want 3", len(results))
	}
	for _, r := range results {
		// The model decides every entity and tracks the latent opinion far
		// better than majority vote, which leaves the long tail undecided.
		if r.ModelAccuracy < r.MVAccuracy+0.15 {
			t.Errorf("%s/%s: model accuracy (%.2f) must clearly beat MV (%.2f)",
				r.Property, r.Type, r.ModelAccuracy, r.MVAccuracy)
		}
		if r.ModelCorrelation < r.MVCorrelation-0.05 {
			t.Errorf("%s/%s: model correlation (%.2f) far below MV (%.2f)",
				r.Property, r.Type, r.ModelCorrelation, r.MVCorrelation)
		}
		if r.ModelDecided < 0.95 {
			t.Errorf("%s/%s: model decided only %.2f", r.Property, r.Type, r.ModelDecided)
		}
		if r.ZeroEvidence == 0 {
			t.Errorf("%s/%s: expected unmentioned entities in the long tail", r.Property, r.Type)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows := Fig10(1)
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20 Figure-10 animals", len(rows))
	}
	// Simulated votes should track the paper's votes closely.
	agreeDir, close := 0, 0
	for _, r := range rows {
		paperPos := r.PaperVotes >= 10
		simPos := r.SimVotes >= 10
		if paperPos == simPos {
			agreeDir++
		}
		diff := r.PaperVotes - r.SimVotes
		if diff < 0 {
			diff = -diff
		}
		if diff <= 5 {
			close++
		}
	}
	if agreeDir < 16 {
		t.Errorf("direction agreement %d/20", agreeDir)
	}
	if close < 14 {
		t.Errorf("only %d/20 within ±5 votes", close)
	}
	if !strings.Contains(FormatFig10(rows), "kitten") {
		t.Error("Format output incomplete")
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6()
	if r.Example1Posterior <= 0.5 {
		t.Fatalf("Pr(D=+|60,3) = %v, the paper's X must be positive", r.Example1Posterior)
	}
	// The positive-dominant grid peaks near C+ = 90; the negative one
	// near C+ = 10.
	peakPos, peakNeg := 0, 0
	for i := range r.PosGrid {
		if r.PosGrid[i][0] > r.PosGrid[peakPos][0] {
			peakPos = i
		}
		if r.NegGrid[i][0] > r.NegGrid[peakNeg][0] {
			peakNeg = i
		}
	}
	if got := peakPos * r.Step; got < 70 || got > 110 {
		t.Errorf("positive grid peaks at C+=%d, want ≈ 90", got)
	}
	if got := peakNeg * r.Step; got > 20 {
		t.Errorf("negative grid peaks at C+=%d, want ≈ 10", got)
	}
	if !strings.Contains(r.Format(), "λ") {
		t.Error("Format output incomplete")
	}
}

func TestTable1Examples(t *testing.T) {
	rows := Table1()
	want := map[string]string{ // property -> pattern
		"dangerous": "amod",
		"very big":  "acomp",
		"fast":      "amod",
		"exciting":  "conj",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Property] = r.Pattern
	}
	for prop, pattern := range want {
		if got[prop] != pattern {
			t.Errorf("property %q: pattern %q, want %q (rows: %v)", prop, got[prop], pattern, rows)
		}
	}
	if !strings.Contains(FormatTable1(rows), "statement") {
		t.Error("Format output incomplete")
	}
}

// TestTable4Shape verifies the Appendix-B ablation: v2 extracts the most,
// v3 the least; the shipped v4 has the best downstream F1.
func TestTable4Shape(t *testing.T) {
	rows := Table4(testWorld(t), 30)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byV := map[extract.Version]Table4Row{}
	for _, r := range rows {
		byV[r.Version] = r
	}
	if !(byV[extract.V2].Statements > byV[extract.V1].Statements) {
		t.Errorf("v2 (%d) should extract more than v1 (%d)",
			byV[extract.V2].Statements, byV[extract.V1].Statements)
	}
	if !(byV[extract.V2].Statements > byV[extract.V4].Statements) {
		t.Errorf("v2 (%d) should extract more than v4 (%d)",
			byV[extract.V2].Statements, byV[extract.V4].Statements)
	}
	if !(byV[extract.V3].Statements < byV[extract.V4].Statements) {
		t.Errorf("v3 (%d) should extract less than v4 (%d)",
			byV[extract.V3].Statements, byV[extract.V4].Statements)
	}
	if byV[extract.V4].SurveyorF1 < byV[extract.V1].SurveyorF1 {
		t.Errorf("v4 F1 (%.2f) should be at least v1's (%.2f)",
			byV[extract.V4].SurveyorF1, byV[extract.V1].SurveyorF1)
	}
	if !strings.Contains(FormatTable4(rows), "modifiers") {
		t.Error("Format output incomplete")
	}
}

// TestTable5Shape verifies the Appendix-D collapse: baseline coverage
// falls to a fraction while Surveyor stays ≈ 1.
func TestTable5Shape(t *testing.T) {
	res := Table5(Table5Config{Seed: 1, Combos: 60, Rho: 25})
	mv := metricsOf(t, res.Rows, "Majority Vote")
	sv := metricsOf(t, res.Rows, "Surveyor")
	wc := metricsOf(t, res.Rows, "WebChild")
	if sv.Coverage < 0.9 {
		t.Errorf("Surveyor coverage = %.3f, want ≈ 1 (paper: 0.999)", sv.Coverage)
	}
	if mv.Coverage > 0.45 {
		t.Errorf("MV coverage = %.3f — should collapse on the long tail (paper: 0.077)", mv.Coverage)
	}
	if sv.Coverage < mv.Coverage*2 {
		t.Errorf("coverage gap too small: SURV %.3f vs MV %.3f", sv.Coverage, mv.Coverage)
	}
	if wc.Coverage < mv.Coverage {
		t.Errorf("WebChild coverage (%.3f) should exceed MV's (%.3f)", wc.Coverage, mv.Coverage)
	}
	if sv.F1 < mv.F1 {
		t.Errorf("Surveyor F1 (%.3f) below MV (%.3f)", sv.F1, mv.F1)
	}
	if !strings.Contains(res.Format(), "random combos") {
		t.Error("Format output incomplete")
	}
}

// TestFutureWorkRecoversGenerativeThresholds verifies the Section-9
// outlook implementation: the bound learned from mined opinions alone
// sits near the latent threshold the corpus was generated from.
func TestFutureWorkRecoversGenerativeThresholds(t *testing.T) {
	rows := FutureWork(WorldConfig{Seed: 1, Scale: 0.5, Rho: 20})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Rule.Support == 0 {
			t.Fatalf("%s/%s: no rule learned", r.Property, r.Type)
		}
		ratio := r.Rule.Threshold / r.GenerativeThreshold
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%s/%s: learned bound %.4g too far from generative %.4g",
				r.Property, r.Type, r.Rule.Threshold, r.GenerativeThreshold)
		}
		// Domains with many borderline entities (mountain heights cluster
		// around the cut) cap agreement below the clean-data ideal.
		if r.Rule.Agreement < 0.75 {
			t.Errorf("%s/%s: agreement %.2f", r.Property, r.Type, r.Rule.Agreement)
		}
	}
	if !strings.Contains(FormatFutureWork(rows), "learned bound") {
		t.Error("Format output incomplete")
	}
}

// TestAntonymAblationShape verifies the Section-4 design decision: on a
// corpus where opinions are partly voiced through antonyms, IGNORING
// antonyms (the paper's choice) yields the best F1; folding them into
// negations loses coverage (tracked antonym pairs cannibalise each other)
// and the naive both-directions fold additionally loses precision
// ("not small" does not mean big).
func TestAntonymAblationShape(t *testing.T) {
	rows := AntonymAblation(WorldConfig{Seed: 1, Scale: 0.6}, 0.35)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[AntonymMode]AntonymRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	ignore, strict, naive := byMode[AntonymIgnore], byMode[AntonymStrict], byMode[AntonymNaive]
	if ignore.F1 < strict.F1 {
		t.Errorf("ignoring antonyms (F1 %.3f) should beat strict folding (%.3f)",
			ignore.F1, strict.F1)
	}
	if ignore.F1 <= naive.F1 {
		t.Errorf("ignoring antonyms (F1 %.3f) must beat naive folding (%.3f)",
			ignore.F1, naive.F1)
	}
	if naive.Precision >= strict.Precision {
		t.Errorf("naive folding (prec %.3f) should be less precise than strict (%.3f)",
			naive.Precision, strict.Precision)
	}
	if !strings.Contains(FormatAntonymAblation(rows), "fold") {
		t.Error("Format output incomplete")
	}
}

// TestTable3SeedRobustness verifies the headline shape is not an artifact
// of one seed.
func TestTable3SeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed run")
	}
	for _, seed := range []uint64{7, 42} {
		w := BuildEvalWorld(WorldConfig{Seed: seed, Scale: 0.4})
		res := Table3(w)
		mv := metricsOf(t, res.Rows, "Majority Vote")
		sv := metricsOf(t, res.Rows, "Surveyor")
		if sv.Coverage < 0.9 {
			t.Errorf("seed %d: Surveyor coverage %.3f", seed, sv.Coverage)
		}
		if sv.Coverage < mv.Coverage*1.4 {
			t.Errorf("seed %d: coverage gap too small (%.3f vs %.3f)", seed, sv.Coverage, mv.Coverage)
		}
		if sv.F1 <= mv.F1 {
			t.Errorf("seed %d: Surveyor F1 (%.3f) must beat MV (%.3f)", seed, sv.F1, mv.F1)
		}
		if sv.Precision <= mv.Precision {
			t.Errorf("seed %d: Surveyor precision (%.3f) must beat MV (%.3f)", seed, sv.Precision, mv.Precision)
		}
	}
}

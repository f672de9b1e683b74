package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/experiments"
)

// TestExperimentsGolden pins every number `experiments -scale 1 -seed 1
// all` prints against a committed file: the tables EXPERIMENTS.md quotes
// are program output, so a change that moves one shows up as a reviewed
// diff of the file. Wall-clock readings go to stderr and are not compared.
func TestExperimentsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "1", "-seed", "1", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d\n%s", code, stderr.String())
	}
	const path = "testdata/experiments_scale1.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("experiments output differs from %s; got:\n%s", path, stdout.String())
	}
}

// TestUnknownExperiment: a name outside the list is a usage error that
// prints nothing on stdout.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"table9"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("run(table9) = %d with %d bytes of stdout, want 2 and none\n%s", code, stdout.Len(), stderr.String())
	}
}

// TestExperimentsVerdicts asserts every verdict EXPERIMENTS.md draws from
// the `-scale 1 -seed 1` run, each against a literal bound beside it
// (today's numbers in the comment). The golden pins the digits; this pins
// the conclusions, by name. A win must show in the printed table, so
// "beats" means by at least 0.01.
func TestExperimentsVerdicts(t *testing.T) {
	cfg := experiments.WorldConfig{Seed: 1, Scale: 1}
	w := experiments.BuildEvalWorld(cfg)
	f1 := func(rows []experiments.MethodMetrics) map[string]float64 {
		out := map[string]float64{}
		for _, r := range rows {
			out[r.Method] = r.F1
		}
		return out
	}

	// Table 3: Surveyor has the highest F1 (0.85; next WebChild 0.73).
	curated := f1(experiments.Table3(w).Rows)
	for m, v := range curated {
		if m != "Surveyor" && curated["Surveyor"] < v+0.01 {
			t.Errorf("Table 3: Surveyor F1 %.3f does not beat %s's %.3f", curated["Surveyor"], m, v)
		}
	}

	// Fig. 12: Surveyor's precision never falls as agreement rises
	// (0.74 → 0.86), and its coverage prints 1.00 throughout.
	prev := 0.0
	for _, pt := range experiments.Fig12(w).Points {
		sv := pt.ByMethod["Surveyor"]
		if sv.Precision < prev {
			t.Errorf("Fig. 12: Surveyor precision falls to %.4f at agreement %d", sv.Precision, pt.MinAgreement)
		}
		if sv.Coverage < 0.995 {
			t.Errorf("Fig. 12: Surveyor coverage %.3f at agreement %d", sv.Coverage, pt.MinAgreement)
		}
		prev = sv.Precision
	}

	// Figs. 3 and 13: the model's correlation beats MV's (0.79/0.26,
	// 0.67/0.60, 0.64/0.61, 0.66/0.59), and the model decides 100%.
	for _, st := range append([]experiments.AttributeStudyResult{experiments.Fig3(cfg)}, experiments.Fig13(cfg)...) {
		if st.ModelCorrelation < st.MVCorrelation+0.01 {
			t.Errorf("%s %s: model correlation %.2f does not beat MV's %.2f", st.Property, st.Type, st.ModelCorrelation, st.MVCorrelation)
		}
		if st.ModelDecided < 1 {
			t.Errorf("%s %s: the model decides %.0f%%", st.Property, st.Type, 100*st.ModelDecided)
		}
	}

	// Table 4: v4 is within 0.01 of the best F1 (v4 0.85, v2 0.86).
	best, v4 := 0.0, 0.0
	for _, r := range experiments.Table4(w, 40) {
		best = max(best, r.SurveyorF1)
		if r.Version == 4 {
			v4 = r.SurveyorF1
		}
	}
	if v4 < best-0.01 {
		t.Errorf("Table 4: v4 F1 %.3f is more than 0.01 below the best, %.3f", v4, best)
	}

	// Table 5: Surveyor's F1 drops least from the curated set (0.08; the
	// baselines lose 0.31–0.40).
	random := f1(experiments.Table5(experiments.Table5Config{Seed: 1, Scale: 1}).Rows)
	drop := func(m string) float64 { return curated[m] - random[m] }
	for m := range random {
		if m != "Surveyor" && drop("Surveyor") > drop(m)-0.01 {
			t.Errorf("Table 5: Surveyor's F1 drop %.3f is not below %s's %.3f", drop("Surveyor"), m, drop(m))
		}
	}

	// Section 4: ignoring antonyms wins on F1 (0.837; folds 0.817, 0.793).
	antonyms := map[experiments.AntonymMode]float64{}
	for _, r := range experiments.AntonymAblation(cfg, 0.35) {
		antonyms[r.Mode] = r.F1
	}
	for mode, v := range antonyms {
		if mode != experiments.AntonymIgnore && antonyms[experiments.AntonymIgnore] < v+0.01 {
			t.Errorf("antonyms: ignore F1 %.3f does not beat mode %d's %.3f", antonyms[experiments.AntonymIgnore], mode, v)
		}
	}

	// Section 9: every learned bound agrees with ≥ 85% of the decided
	// entities (92%, 91%, 89%).
	for _, r := range experiments.FutureWork(cfg) {
		if r.Rule.Agreement < 0.85 {
			t.Errorf("Section 9: %s %s bound agrees with %.0f%%", r.Property, r.Type, 100*r.Rule.Agreement)
		}
	}
}

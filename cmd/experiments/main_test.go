package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestExperimentsDoc: EXPERIMENTS.md is the golden. Every section of
// `experiments -scale 1 -seed 1 all` is a marked block there, and the
// blocks in program order, each under its heading, must rebuild the
// whole stdout byte for byte. Wall-clock readings go to stderr and are
// not compared. On a mismatch each differing block is printed to stdout
// as it should read, ready to paste in.
func TestExperimentsDoc(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "1", "-seed", "1", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run exited %d\n%s", code, stderr.String())
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	secs := sections(1, 1, io.Discard)
	blocks, err := docBlocks(string(doc), secs)
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v", err)
	}
	got := stdout.String()
	var want strings.Builder
	for _, e := range secs {
		want.WriteString(e.header() + blocks[e.name])
	}
	if got == want.String() {
		return
	}
	// Print each differing block as it should read: to stdout, unlike
	// t.Errorf's indented lines, so that it pastes as it is.
	for i, e := range secs {
		end := len(got)
		if i+1 < len(secs) {
			end = strings.Index(got, secs[i+1].header())
		}
		text := got[strings.Index(got, e.header())+len(e.header()) : end]
		if block, ok := blocks[e.name]; !ok || text != block {
			t.Errorf("EXPERIMENTS.md block %q is missing or differs from the program's output; stdout shows it as it should read", e.name)
			fmt.Print("<!-- experiments: " + e.name + " -->\n```text\n" + text + "```\n")
		}
	}
}

// docBlocks reads EXPERIMENTS.md's marked blocks: a line "<!-- experiments:
// NAME -->", then a ```text fence whose lines, each with its newline, are
// section NAME's stdout. A name that is not a section, or appears twice,
// is an error.
func docBlocks(doc string, secs []experiment) (map[string]string, error) {
	blocks := map[string]string{}
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		name, ok := strings.CutPrefix(lines[i], "<!-- experiments: ")
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, " -->")
		_, dup := blocks[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("line %d: malformed marker %q", i+1, lines[i])
		case !slices.ContainsFunc(secs, func(e experiment) bool { return e.name == name }):
			return nil, fmt.Errorf("line %d: unknown block name %q", i+1, name)
		case dup:
			return nil, fmt.Errorf("line %d: block %q appears twice", i+1, name)
		case i+1 == len(lines) || lines[i+1] != "```text":
			return nil, fmt.Errorf("line %d: block %q is not followed by a ```text fence", i+1, name)
		}
		var b strings.Builder
		j := i + 2
		for ; j < len(lines) && lines[j] != "```"; j++ {
			b.WriteString(lines[j] + "\n")
		}
		if j == len(lines) {
			return nil, fmt.Errorf("line %d: block %q has no closing fence", i+1, name)
		}
		blocks[name] = b.String()
		i = j
	}
	return blocks, nil
}

// TestUnknownExperiment: a name outside the list is a usage error that
// prints nothing on stdout and names every section.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"table9"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("run(table9) = %d with %d bytes of stdout, want 2 and none\n%s", code, stdout.Len(), stderr.String())
	}
	_, list, _ := strings.Cut(stderr.String(), "known:")
	known := strings.Fields(list)
	for _, e := range sections(1, 1, io.Discard) {
		if !slices.Contains(known, e.name) {
			t.Errorf("the usage error does not name %q: %s", e.name, stderr.String())
		}
	}
}

// TestExperimentsVerdicts asserts every verdict EXPERIMENTS.md draws from
// the `-scale 1 -seed 1` run, each against a literal bound beside it
// (today's numbers in the comment). TestExperimentsDoc pins the digits;
// this pins the conclusions, by name. A win must show in the printed table, so
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

	// Ablations. Per-(type, property) parameters beat one global model by
	// ≥ 0.05 (0.79 vs 0.67).
	ab := experiments.Ablations(w)
	if ab.PerGroupAccuracy < ab.GlobalAccuracy+0.05 {
		t.Errorf("ablations: per-group accuracy %.4f does not beat global %.4f by 0.05", ab.PerGroupAccuracy, ab.GlobalAccuracy)
	}
	// The default 16-point pA grid is within 0.01/entity of the 45-point
	// grid and ≥ 0.1 above the 3-point one (−4.722 / −4.725 / −5.226).
	coarse, def, dense := ab.GridLogLik[0], ab.GridLogLik[1], ab.GridLogLik[2]
	if math.Abs(def-dense) > 0.01 || def < coarse+0.1 {
		t.Errorf("ablations: pA grid log-likelihood/entity %.3f (16 points) vs %.3f (3) and %.3f (45)", def, coarse, dense)
	}
	// The intrinsicness checks lower statements per sentence (0.70 vs 0.93).
	if ab.ChecksOn >= ab.ChecksOff {
		t.Errorf("ablations: %.2f statements/sentence with the checks on, %.2f off", ab.ChecksOn, ab.ChecksOff)
	}
	// The Poisson posterior is within 1e-3 of the exact trinomial at
	// n = 10⁶ (3.9e-36).
	if ab.PoissonGap >= 1e-3 {
		t.Errorf("ablations: Poisson vs exact posterior gap %.1e", ab.PoissonGap)
	}
}

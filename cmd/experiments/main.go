// Command experiments regenerates every table and figure of the paper
// "Mining Subjective Properties on the Web" (SIGMOD 2015) on the synthetic
// web snapshot.
//
// Usage:
//
//	experiments [flags] [experiment...]
//
// Experiments: table1 table3 table4 table5 fig3 fig6 fig9 fig10 fig11
// fig12 fig13 scale antonyms futurework ablations all (default: all).
//
// Flags:
//
//	-seed N    deterministic seed (default 1)
//	-scale F   corpus volume multiplier (default 1)
//
// Stdout is a function of the seed and the scale alone. Wall-clock
// readings (Section 7.1's phase times, Table 4's extraction time) and
// progress go to stderr. EXPERIMENTS.md holds the -seed 1 -scale 1 stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experiment is one section of the output: its name on the command line,
// its heading, and the function that computes its stdout text.
type experiment struct {
	name, title string
	text        func() string
}

// header is the line run prints before the section's text.
func (e experiment) header() string { return "\n=== " + e.title + " ===\n" }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "deterministic seed")
	scale := fs.Float64("scale", 1, "corpus volume multiplier")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := sections(*seed, *scale, stderr)
	var names []string
	for _, e := range all {
		names = append(names, e.name)
	}
	want := map[string]bool{}
	for _, w := range fs.Args() {
		if w != "all" && !slices.Contains(names, w) {
			fmt.Fprintf(stderr, "unknown experiment %q; known: %s all\n", w, strings.Join(names, " "))
			return 2
		}
		want[w] = true
	}
	for _, e := range all {
		if len(want) == 0 || want["all"] || want[e.name] {
			fmt.Fprint(stdout, e.header(), e.text())
		}
	}
	return 0
}

// sections lists the experiments in print order. Each text function
// computes its section's stdout; wall-clock readings go to stderr.
func sections(seed uint64, scale float64, stderr io.Writer) []experiment {
	cfg := experiments.WorldConfig{Seed: seed, Scale: scale}
	rho := int64(40 * scale)

	// The Section-7 experiments share one world; build it lazily.
	var world *experiments.World
	getWorld := func() *experiments.World {
		if world == nil {
			fmt.Fprintf(stderr, "building evaluation world (seed=%d scale=%g)...\n", seed, scale)
			world = experiments.BuildEvalWorld(cfg)
		}
		return world
	}

	return []experiment{
		{"table1", "Table 1 — example extractions", func() string {
			return experiments.FormatTable1(experiments.Table1())
		}},
		{"fig6", "Figure 6 — count distributions under Example-3 parameters", func() string {
			return experiments.Fig6().Format()
		}},
		{"fig3", "Figure 3 — big Californian cities: majority vote vs model", func() string {
			return experiments.Fig3(cfg).Format()
		}},
		{"fig13", "Figure 13 — wealthy countries, big lakes, high mountains", func() string {
			var b strings.Builder
			for _, r := range experiments.Fig13(cfg) {
				b.WriteString(r.Format() + "\n")
			}
			return b.String()
		}},
		{"scale", "Section 7.1 — pipeline scale statistics", func() string {
			st := experiments.Scale(getWorld())
			fmt.Fprintf(stderr, "Section 7.1 times: extraction %d ms (paper: ~1h on 5000 nodes), grouping %d ms (paper: ~1h), EM %d ms (paper: 10 min)\n",
				st.ExtractionMillis, st.GroupingMillis, st.EMMillis)
			return st.Format()
		}},
		{"fig9", "Figure 9 — extraction statistics percentiles", func() string {
			return experiments.Fig9(getWorld(), rho).Format()
		}},
		{"fig10", "Figure 10 — cute animals: paper AMT votes vs simulated panel", func() string {
			return experiments.FormatFig10(experiments.Fig10(seed))
		}},
		{"fig11", "Figure 11 — worker agreement distribution", func() string {
			return experiments.Fig11(getWorld()).Format()
		}},
		{"table3", "Table 3 — method comparison on 500 curated test cases", func() string {
			return experiments.Table3(getWorld()).Format()
		}},
		{"fig12", "Figure 12 — precision/coverage vs worker agreement", func() string {
			return experiments.Fig12(getWorld()).Format()
		}},
		{"table4", "Table 4 — extraction pattern versions (Appendix B)", func() string {
			rows := experiments.Table4(getWorld(), rho)
			for _, r := range rows {
				fmt.Fprintf(stderr, "Table 4 v%d nlp+extract: %d ms\n", r.Version, r.ExtractionMillis)
			}
			return experiments.FormatTable4(rows)
		}},
		{"table5", "Table 5 — random-sample comparison (Appendix D)", func() string {
			return experiments.Table5(experiments.Table5Config{Seed: seed, Scale: scale}).Format()
		}},
		{"antonyms", "Section 4 ablation — antonym folding vs ignoring", func() string {
			return experiments.FormatAntonymAblation(experiments.AntonymAblation(cfg, 0.35))
		}},
		{"futurework", "Section 9 outlook — learned subjective-to-objective bounds", func() string {
			return experiments.FormatFutureWork(experiments.FutureWork(cfg))
		}},
		{"ablations", "Ablations — the design choices of DESIGN.md", func() string {
			return experiments.Ablations(getWorld()).Format()
		}},
	}
}

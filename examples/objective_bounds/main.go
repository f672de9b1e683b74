// Objective bounds: the paper's future-work direction (Section 9) as a
// runnable example — "find a lower bound on the population count of a
// city starting from which an average user would call that city big."
//
// The example mines opinions for "big" over the Californian cities, then
// learns the population bound implied by those opinions alone, without
// ever being told the generative threshold.
//
// Run with: go run ./examples/objective_bounds
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/surveyor"
)

func main() { run(os.Stdout, 1) }

// run does the actual work at the given corpus scale; the smoke test
// drives it in-process on a small snapshot.
func run(w io.Writer, scale float64) {
	builder := kb.NewBuilder(21)
	builder.CalifornianCities(461)
	builder.AssignProminence("city", "population")
	base := builder.KB()

	spec := corpus.Figure3Spec() // latent midpoint: 250,000 inhabitants
	spec.PopularityWeighting = true
	snap := corpus.NewGenerator(base, []corpus.Spec{spec},
		corpus.Config{Seed: 21, Scale: scale}).Generate()

	sys := surveyor.NewSystem()
	for _, id := range base.OfType("city") {
		e := base.Get(id)
		sys.AddEntity(e.Name, "city", true, e.Attrs())
	}
	docs := make([]surveyor.Document, len(snap.Documents))
	for i, d := range snap.Documents {
		docs[i] = surveyor.Document{URL: d.URL, Text: d.Text}
	}

	res := sys.Mine(docs, surveyor.Config{Rho: 50})
	fmt.Fprintln(w, "run:", res.Stats())

	rule, ok := res.LearnRule("city", "big", "population")
	if !ok {
		fmt.Fprintln(w, "no rule could be learned")
		return
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "learned rule:", rule)
	fmt.Fprintf(w, "generative threshold the corpus was built from: 250,000\n")
	fmt.Fprintf(w, "usable for refinement: %v (correlation %.2f)\n", rule.Usable, rule.Correlation)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "spot checks against the learned bound:")
	for _, name := range []string{"Los Angeles", "Sacramento", "Palo Alto", "Sausalito"} {
		op, ok := res.Opinion(name, "big")
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s mined: %s (p=%.2f)\n", name, op.Opinion, op.Probability)
	}
}

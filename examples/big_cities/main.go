// Big cities: the Section-2 empirical study as a runnable example.
//
// 461 Californian cities, heavy polarity bias (people write "X is a big
// city" an order of magnitude more often than "X is not a big city"), and
// a long visibility tail — most small towns are never mentioned at all.
// The example shows the two failure modes of majority voting (Figure 3c)
// and how the probabilistic model fixes both (Figure 3d), including
// deciding zero-evidence cities from the absence of statements alone.
//
// Run with: go run ./examples/big_cities
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/surveyor"
)

func main() { run(os.Stdout, 1) }

// run does the actual work at the given corpus scale; the smoke test
// drives it in-process on a small snapshot.
func run(w io.Writer, scale float64) {
	builder := kb.NewBuilder(3)
	builder.CalifornianCities(461)
	builder.AssignProminence("city", "population")
	base := builder.KB()

	spec := corpus.Figure3Spec()
	spec.PopularityWeighting = true
	snap := corpus.NewGenerator(base, []corpus.Spec{spec},
		corpus.Config{Seed: 3, Scale: scale}).Generate()

	sys := surveyor.NewSystem()
	type cityInfo struct {
		id  int
		pop float64
	}
	cities := make(map[string]cityInfo, base.Len())
	for _, kid := range base.OfType("city") {
		e := base.Get(kid)
		id := sys.AddEntity(e.Name, "city", true, e.Attrs())
		cities[e.Name] = cityInfo{id: id, pop: e.Attr("population", 0)}
	}

	docs := make([]surveyor.Document, len(snap.Documents))
	for i, d := range snap.Documents {
		docs[i] = surveyor.Document{URL: d.URL, Text: d.Text}
	}
	res := sys.Mine(docs, surveyor.Config{Rho: 50})
	fmt.Fprintln(w, "run:", res.Stats())

	names := make([]string, 0, len(cities))
	for n := range cities {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return cities[names[a]].pop > cities[names[b]].pop })

	fmt.Fprintln(w, "\npopulation    city                 evidence     MV   model")
	var mvWrongSmall, zeroDecided int
	for i, n := range names {
		info := cities[n]
		op, ok := res.OpinionByID(info.id, "big")
		if !ok {
			continue
		}
		mv := surveyor.MajorityVote(surveyor.Counts{Pos: int(op.Pos), Neg: int(op.Neg)})
		if info.pop < 100_000 && mv == surveyor.Positive {
			mvWrongSmall++
		}
		if op.Pos == 0 && op.Neg == 0 && op.Opinion != surveyor.Unsolved {
			zeroDecided++
		}
		// Print the extremes and a slice of the middle.
		if i < 6 || i >= len(names)-6 || (i >= 225 && i < 231) {
			fmt.Fprintf(w, "%10.0f    %-20s +%3d/-%3d    %s    %s (p=%.3f)\n",
				info.pop, n, op.Pos, op.Neg, mv, op.Opinion, op.Probability)
		}
		if i == 6 || i == 231 {
			fmt.Fprintln(w, "      ...")
		}
	}
	fmt.Fprintf(w, "\nmajority vote calls %d cities under 100k population 'big' (the Figure 3c failure)\n", mvWrongSmall)
	fmt.Fprintf(w, "the model classified %d cities that have zero statements (the Figure 3d coverage win)\n", zeroDecided)
}

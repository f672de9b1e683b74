// Regional bias: region-specific mining by restricting the input corpus.
//
// Section 2 of the paper notes that "Chinese users might have different
// ideas than American users about what constitutes a big city" and that
// Surveyor can produce region-specific results by restricting the input to
// web sites with specific domain extensions. This example builds a
// snapshot authored by two regions with different thresholds for "big",
// then mines each region's documents separately and diffs the results.
//
// Run with: go run ./examples/regional_bias
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

func main() { run(os.Stdout, 1.5) }

// run does the actual work at the given corpus scale; the smoke test
// drives it in-process on a small snapshot.
func run(w io.Writer, scale float64) {
	builder := kb.NewBuilder(11)
	builder.CalifornianCities(150)
	base := builder.KB()

	// Authors from .com call a city big above 150k inhabitants; authors
	// from .cn only above 600k.
	spec := corpus.RegionalSpec("big", "com", "cn", 150_000)
	snap := corpus.NewGenerator(base, []corpus.Spec{spec}, corpus.Config{
		Seed:  11,
		Scale: scale,
		Domains: []corpus.DomainShare{
			{Domain: "com", Share: 0.5},
			{Domain: "cn", Share: 0.5},
		},
	}).Generate()

	mine := func(domain string) (*surveyor.Result, *surveyor.System) {
		sys := surveyor.NewSystem()
		for _, id := range base.OfType("city") {
			e := base.Get(id)
			sys.AddEntity(e.Name, "city", true, e.Attrs())
		}
		var docs []surveyor.Document
		for _, d := range snap.DocumentsInDomain(domain) {
			docs = append(docs, surveyor.Document{URL: d.URL, Domain: d.Domain, Text: d.Text})
		}
		fmt.Fprintf(w, "mining %d documents from .%s sites\n", len(docs), domain)
		return sys.Mine(docs, surveyor.Config{Rho: 30}), sys
	}

	resCom, _ := mine("com")
	resCn, _ := mine("cn")

	type row struct {
		name string
		pop  float64
		com  surveyor.Opinion
		cn   surveyor.Opinion
	}
	var rows []row
	for _, id := range base.OfType("city") {
		e := base.Get(id)
		opCom, ok1 := resCom.Opinion(e.Name, "big")
		opCn, ok2 := resCn.Opinion(e.Name, "big")
		if !ok1 || !ok2 {
			continue
		}
		rows = append(rows, row{e.Name, e.Attr("population", 0), opCom.Opinion, opCn.Opinion})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].pop > rows[b].pop })

	fmt.Fprintln(w, "\npopulation    city                 .com  .cn")
	disagreements := 0
	for _, r := range rows {
		marker := ""
		if r.com != r.cn {
			disagreements++
			marker = "   <- regions disagree"
		}
		if r.pop > 1_000_000 || (r.pop > 100_000 && r.pop < 700_000) || r.com != r.cn {
			fmt.Fprintf(w, "%10.0f    %-20s %s     %s%s\n", r.pop, r.name, r.com, r.cn, marker)
		}
	}
	fmt.Fprintf(w, "\n%d of %d cities are 'big' in one region but not the other\n", disagreements, len(rows))
	fmt.Fprintln(w, "(mid-size cities are big to .com authors but not to .cn authors)")
}

// Command surveyorlint runs the repository's custom determinism,
// concurrency, and safety-contract analyzers (detmap, detrand, obsflow,
// lockflow, allocbound, ctxflow, errflow) over package patterns, mirroring
// a golang.org/x/tools multichecker on the standard library only.
//
// Standalone use:
//
//	go run ./cmd/surveyorlint ./...
//
// As a vet tool (unit-checker protocol):
//
//	go build -o /tmp/surveyorlint ./cmd/surveyorlint
//	go vet -vettool=/tmp/surveyorlint ./...
//
// Findings can be suppressed one line at a time with a justified
// directive, either trailing the offending line or on the line above:
//
//	//lint:allow <analyzer> <one-line reason>
//
// A directive with no reason, naming an unknown analyzer, or suppressing
// nothing is itself reported. The command exits 0 when the tree is clean
// and 1 when there are findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/allocbound"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detmap"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/errflow"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/lockflow"
	"repro/internal/analysis/obsflow"
)

var analyzers = []*framework.Analyzer{
	detmap.Analyzer,
	detrand.Analyzer,
	obsflow.Analyzer,
	lockflow.Analyzer,
	allocbound.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
}

func knownAnalyzers() map[string]bool {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	return known
}

func main() {
	// The go command probes vet tools with -V=full and -flags before
	// handing them package configs; all are handled before normal flag
	// parsing.
	if len(os.Args) == 2 {
		if strings.HasPrefix(os.Args[1], "-V") {
			fmt.Printf("surveyorlint version %s\n", buildFingerprint())
			return
		}
		if os.Args[1] == "-flags" {
			fmt.Println("[]")
			return
		}
		if strings.HasSuffix(os.Args[1], ".cfg") {
			os.Exit(vetMode(os.Args[1]))
		}
	}

	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: surveyorlint [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.Load("", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyorlint:", err)
		os.Exit(2)
	}

	// One fact store for the whole run: Load returns packages in
	// dependency order, so an imported package's facts are in the store
	// before any of its importers are analyzed.
	facts := framework.NewFactStore(analyzers)
	var all []framework.Finding
	for _, pkg := range pkgs {
		findings, err := framework.Run(pkg, analyzers, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "surveyorlint:", err)
			os.Exit(2)
		}
		allows, malformed := framework.CollectAllows(pkg, knownAnalyzers())
		kept, unused := framework.Suppress(findings, allows)
		all = append(all, kept...)
		all = append(all, malformed...)
		all = append(all, unused...)
	}
	framework.SortFindings(all)

	cwd, _ := os.Getwd()
	for _, f := range all {
		fmt.Printf("%s: [%s] %s\n", relTo(cwd, f.Pos.String()), f.Analyzer, f.Message)
		for _, fix := range f.Fixes {
			fmt.Printf("\tsuggested fix: %s\n", fix.Message)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "surveyorlint: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// relTo shortens an absolute file:line:col position to be relative to the
// working directory when possible.
func relTo(cwd, pos string) string {
	if cwd == "" || !filepath.IsAbs(pos) {
		return pos
	}
	if rel, err := filepath.Rel(cwd, pos); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return pos
}

// Command surveyorlint runs the repository's custom determinism,
// concurrency, and safety-contract analyzers (detmap, detrand, obsflow,
// lockflow, ctxflow, errflow) over package patterns, mirroring a
// golang.org/x/tools multichecker on the standard library only.
//
// It is a vet tool (unit-checker protocol): the go command loads the
// packages, _test.go files included, and caches per-package results.
// Each package is analyzed on its own; dependencies are only
// type-checked (from export data), never analyzed.
//
//	go build -o /tmp/surveyorlint ./cmd/surveyorlint
//	go vet -vettool=/tmp/surveyorlint ./...
//
// Given package patterns instead of a vet config, it runs exactly that on
// itself:
//
//	go run ./cmd/surveyorlint ./...
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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

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

	// No vet config: have the go command drive this binary over the
	// patterns, so there is one loader and one reporting path.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyorlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			os.Exit(exit.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "surveyorlint:", err)
		os.Exit(2)
	}
}

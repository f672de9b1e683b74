package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// buildTool compiles surveyorlint into a temp dir and returns the binary
// path.
func buildTool(t *testing.T, root string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "surveyorlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/surveyorlint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building surveyorlint: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneCleanTree is the self-dogfooding gate: the binary given
// package patterns (it runs go vet on itself) must produce zero findings
// on the committed tree, _test.go files included.
func TestStandaloneCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and lints the whole module")
	}
	root := moduleRoot(t)
	bin := buildTool(t, root)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("surveyorlint ./... reported findings on a tree that must be clean:\n%s", out)
	}
}

// TestStandaloneListsAnalyzers: -list names every registered analyzer.
func TestStandaloneListsAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	root := moduleRoot(t)
	bin := buildTool(t, root)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("surveyorlint -list: %v\n%s", err, out)
	}
	for _, name := range []string{
		"detmap", "detrand", "obsflow", "lockflow", "ctxflow", "errflow",
	} {
		if !bytes.Contains(out, []byte(name)) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

// TestVetTool runs surveyorlint through the real `go vet -vettool`
// protocol over a determinism-critical package of this module.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	root := moduleRoot(t)
	bin := buildTool(t, root)
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/evidence", "./internal/core", "./internal/wire/...", "./internal/dist")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -vettool failed on a clean tree: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "finding") {
		t.Fatalf("unexpected findings:\n%s", out)
	}
}

// writeFixtureModule lays out a scratch module with one injected violation
// per dataflow analyzer. internal/evidence holds the seeded detmap
// violation (detmap's findings carry a suggested fix) and a _test.go file,
// which the go command hands over in the package's test variant only: one
// more violation, one justified allow, one unused allow.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",
		"internal/ctxbad/ctxbad.go": `// Package ctxbad holds the ctxflow violation.
package ctxbad

import "context"

// Fresh detaches its callees from the caller's cancellation tree.
func Fresh() context.Context {
	return context.Background()
}
`,
		"internal/evidence/evidence.go": `// Package evidence holds the seeded detmap violation.
package evidence

// Keys leaks map iteration order into its result.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
		"internal/evidence/evidence_test.go": `package evidence

func values(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func sum(m map[string]int) int {
	n := 0
	//lint:allow detmap addition commutes, order cannot leak
	for _, v := range m {
		n += v
	}
	return n
}

//lint:allow detmap nothing below ranges over a map
func one() int { return 1 }
`,
		"internal/corpus/corpus.go": `// Package corpus holds the errflow violation.
package corpus

import "io"

// AtEOF matches a sentinel by identity, broken under wrapping.
func AtEOF(err error) bool {
	return err == io.EOF
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// fixtureWants is every finding the fixture module must produce, by the
// file:line it is reported at and a fragment of its message.
var fixtureWants = []struct{ loc, msg string }{
	{"internal/ctxbad/ctxbad.go:8:", "context.Background in a library package"},
	{"internal/corpus/corpus.go:8:", "compared against a sentinel with =="},
	{"internal/evidence/evidence.go:7:", "[detmap]"},
	{"internal/evidence/evidence_test.go:5:", "[detmap]"},
	{"internal/evidence/evidence_test.go:20:", "unused //lint:allow detmap"},
}

// checkFixtureOutput asserts each wanted finding is reported exactly once —
// a non-test file reaches the tool in its package and again in the test
// variant, and only one of the two may speak — that the justified allow
// silenced its loop, and that each detmap finding carries its fix.
func checkFixtureOutput(t *testing.T, out string) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for _, w := range fixtureWants {
		n := 0
		for _, line := range lines {
			if strings.Contains(line, filepath.FromSlash(w.loc)) && strings.Contains(line, w.msg) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%q at %s reported %d times, want 1:\n%s", w.msg, w.loc, n, out)
		}
	}
	if strings.Contains(out, filepath.FromSlash("evidence_test.go:14:")) {
		t.Errorf("the justified //lint:allow did not suppress its finding:\n%s", out)
	}
	if n := strings.Count(out, "suggested fix:"); n != 2 {
		t.Errorf("%d suggested-fix lines, want 2 (one per unsuppressed detmap finding):\n%s", n, out)
	}
}

// TestVetToolFixtureViolations drives the injected violations through
// `go vet -vettool`: each analyzer must fire.
func TestVetToolFixtureViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	bin := buildTool(t, moduleRoot(t))
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = writeFixtureModule(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool found nothing on the violation fixture:\n%s", out)
	}
	checkFixtureOutput(t, string(out))
}

// TestStandaloneFixtureViolations runs the same fixture module through the
// binary given patterns: same findings, exit status 1.
func TestStandaloneFixtureViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	bin := buildTool(t, moduleRoot(t))
	cmd := exec.Command(bin, "./...")
	cmd.Dir = writeFixtureModule(t)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("surveyorlint ./... on the violation fixture: %v, want exit status 1\n%s", err, out)
	}
	checkFixtureOutput(t, string(out))
}

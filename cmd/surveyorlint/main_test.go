package main

import (
	"bytes"
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

// TestStandaloneCleanTree is the self-dogfooding gate: the committed tree
// must produce zero findings.
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

// TestStandaloneFindsSeededViolation checks the driver end to end on a
// tree that must NOT be clean: a scratch fixture package is linted with
// the analyzer names visible in the output and a nonzero exit.
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
		"detmap", "detrand", "obsflow", "lockflow",
		"allocbound", "ctxflow", "errflow",
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
	// wire and dist exercise the cross-package fact path over the real
	// tree: dist's decode guards are only provable through the
	// DecodedSource/ValidatesParam facts wire's analysis leaves in .vetx.
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/evidence", "./internal/core", "./internal/wire", "./internal/dist")
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
// per dataflow analyzer. The allocbound violation lives in a package that
// only imports the decoder — catching it requires wire's DecodedSource
// fact to cross the package (and, under go vet, the process) boundary.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixturemod\n\ngo 1.22\n",
		"internal/wire/wire.go": `// Package wire is the clean decoder half of the fixture.
package wire

import "encoding/binary"

// DecodeCount decodes a count prefix; callers must bound-check it.
func DecodeCount(b []byte) uint64 {
	v, _ := binary.Uvarint(b)
	return v
}
`,
		"internal/dist/dist.go": `// Package dist holds the cross-package allocbound violation.
package dist

import "fixturemod/internal/wire"

// Alloc sizes a slice straight from the decoded count, unguarded.
func Alloc(b []byte) []int {
	n := wire.DecodeCount(b)
	return make([]int, n)
}
`,
		"internal/ctxbad/ctxbad.go": `// Package ctxbad holds the ctxflow violation.
package ctxbad

import "context"

// Fresh detaches its callees from the caller's cancellation tree.
func Fresh() context.Context {
	return context.Background()
}
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

// fixtureWants are the three injected violations, one per new analyzer.
var fixtureWants = []struct{ loc, msg string }{
	{"internal/dist/dist.go", "derives from decoded input"},
	{"internal/ctxbad/ctxbad.go", "context.Background in a library package"},
	{"internal/corpus/corpus.go", "compared against a sentinel with =="},
}

// TestVetToolFixtureViolations drives the injected violations through the
// real `go vet -vettool` protocol: each analyzer must fire, and the
// allocbound finding in dist proves a DecodedSource fact travelled from
// wire's analysis process to dist's through the .vetx files.
func TestVetToolFixtureViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet")
	}
	bin := buildTool(t, moduleRoot(t))
	dir := writeFixtureModule(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool found nothing on the violation fixture:\n%s", out)
	}
	for _, w := range fixtureWants {
		if !strings.Contains(string(out), w.msg) || !strings.Contains(string(out), filepath.FromSlash(w.loc)) {
			t.Errorf("missing %q at %s in go vet output:\n%s", w.msg, w.loc, out)
		}
	}
}

// TestStandaloneFixtureViolations runs the same fixture module through the
// standalone driver, where facts flow through the in-process store.
func TestStandaloneFixtureViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	bin := buildTool(t, moduleRoot(t))
	dir := writeFixtureModule(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("standalone run found nothing on the violation fixture:\n%s", out)
	}
	for _, w := range fixtureWants {
		if !strings.Contains(string(out), w.msg) || !strings.Contains(string(out), filepath.FromSlash(w.loc)) {
			t.Errorf("missing %q at %s in standalone output:\n%s", w.msg, w.loc, out)
		}
	}
}

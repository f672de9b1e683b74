// Package analysistest runs a framework.Analyzer over small fixture
// packages and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// Fixture layout follows the x/tools convention: the test's testdata/src
// directory acts as a miniature GOPATH, each fixture package in its own
// directory, imported by its path relative to src. Expected diagnostics
// are written as trailing comments on the offending line:
//
//	for k := range m { // want `map iteration`
//
// Each quoted or backquoted string after "want" is a regular expression
// that must match one diagnostic message on that line; diagnostics with no
// matching want, and wants with no matching diagnostic, fail the test.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package from testdata/src, applies the analyzer,
// and reports mismatches against the // want expectations through t.
// Fixture packages the requested ones import are type-checked but not
// analyzed.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld, err := newLoader(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, path := range pkgpaths {
		pkg, err := ld.load(path)
		if err != nil {
			t.Errorf("analysistest: loading %s: %v", path, err)
			return
		}
		findings, err := framework.Run(pkg, []*framework.Analyzer{a})
		if err != nil {
			t.Errorf("analysistest: running %s on %s: %v", a.Name, path, err)
			return
		}
		check(t, pkg, findings)
	}
}

// A want is one expected-diagnostic regexp at a file:line.
type want struct {
	pos     token.Position
	re      *regexp.Regexp
	matched bool
}

func check(t *testing.T, pkg *framework.Package, findings []framework.Finding) {
	t.Helper()
	wants, err := collectWants(pkg)
	if err != nil {
		t.Error(err)
		return
	}
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if w.matched || w.pos.Filename != f.Pos.Filename || w.pos.Line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic matching %q", w.pos, w.re)
		}
	}
}

// wantRe pulls the expectation list out of a comment: each item is either
// a Go-quoted string or a backquoted string.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(pkg *framework.Package) ([]*want, error) {
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				items := wantRe.FindAllString(strings.TrimPrefix(text, "want "), -1)
				if len(items) == 0 {
					return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, item := range items {
					pattern := item
					if strings.HasPrefix(item, "\"") {
						unq, err := strconv.Unquote(item)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want string %s: %v", pos, item, err)
						}
						pattern = unq
					} else {
						pattern = strings.Trim(item, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants = append(wants, &want{pos: pos, re: re})
				}
			}
		}
	}
	return wants, nil
}

// loader type-checks fixture packages, resolving imports first against
// testdata/src, then against the real toolchain's export data (for the
// standard library).
type loader struct {
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*entry
}

type entry struct {
	pkg  *framework.Package
	err  error
	busy bool
}

func newLoader(srcRoot string) (*loader, error) {
	ld := &loader{
		srcRoot: srcRoot,
		fset:    token.NewFileSet(),
		cache:   map[string]*entry{},
	}
	stdPaths, err := ld.scanStdImports()
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(stdPaths)
	if err != nil {
		return nil, err
	}
	ld.std = framework.ExportImporter(ld.fset, exports, nil)
	return ld, nil
}

// scanStdImports walks every fixture file and returns the imports that do
// not resolve inside testdata/src — those must be standard-library
// packages.
func (ld *loader) scanStdImports() ([]string, error) {
	seen := map[string]bool{}
	var std []string
	err := filepath.Walk(ld.srcRoot, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] {
				continue
			}
			seen[p] = true
			if _, statErr := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(p))); statErr != nil {
				std = append(std, p)
			}
		}
		return nil
	})
	return std, err
}

// stdExports asks the toolchain for export-data files for the given
// standard-library packages and their dependencies.
func stdExports(paths []string) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export", "--"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", paths, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// Import implements types.Importer over the fixture tree, so fixture
// packages can import each other.
func (ld *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(path))); err != nil {
		return ld.std.Import(path)
	}
	pkg, err := ld.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load parses and type-checks one fixture package by its path under
// testdata/src.
func (ld *loader) load(path string) (*framework.Package, error) {
	if e, ok := ld.cache[path]; ok {
		if e.busy {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &entry{busy: true}
	ld.cache[path] = e
	e.pkg, e.err = ld.loadUncached(path)
	e.busy = false
	return e.pkg, e.err
}

func (ld *loader) loadUncached(path string) (*framework.Package, error) {
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, de.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := framework.NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &framework.Package{
		Path:      path,
		Fset:      ld.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

package testkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The two tests below read the library's source rather than run it: each
// rule they check guards against a value the dynamic oracles see only
// once it reaches a result, and some never do in a test (a wall-clock
// budget that never runs out, a bare sentinel that happens to arrive
// unwrapped today).

// libraryFile is one parsed non-test file under internal/, with the
// package path each of its import names stands for.
type libraryFile struct {
	rel     string // path below internal/, slash-separated
	file    *ast.File
	imports map[string]string
}

func parseLibrary(t *testing.T) (*token.FileSet, []libraryFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []libraryFile
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		lf := libraryFile{rel: filepath.ToSlash(strings.TrimPrefix(path, ".."+string(filepath.Separator))),
			file: f, imports: map[string]string{}}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if name == "v2" {
				name = "rand" // math/rand/v2
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			lf.imports[name] = p
		}
		files = append(files, lf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("parsed %d library files; the walk is not over internal/", len(files))
	}
	return fset, files
}

// eachFunc calls visit for every node of every top-level declaration,
// with the name of the function it sits in ("" outside any).
func (lf libraryFile) eachFunc(visit func(fn string, n ast.Node)) {
	for _, decl := range lf.file.Decls {
		fn := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if n != nil {
				visit(fn, n)
			}
			return true
		})
	}
}

// TestNoAmbientSources: library code reads no wall clock, no global or
// system random source and no expvar state, and mints no context of its
// own, except at the sites listed with the reason each is safe. Results
// must be a function of the input and the seeds; timestamps flow through
// obs.Clock; cancellation flows from the caller's ctx. A listed site that
// is gone fails too, so the list cannot rot.
func TestNoAmbientSources(t *testing.T) {
	allowed := map[string]string{
		"dist/transport.go deadlineIn time.Now":         "a liveness deadline for the kernel's poller: it can decide that a retry happens, never what a shard contains",
		"obs/clock.go NewSystemClock time.Now":          "the one wall-clock source behind obs.Clock",
		"obs/clock.go Now time.Since":                   "the same clock's reading",
		"obs/server.go Close context.Background":        "Close owns shutdown: the request contexts are gone by then",
		"pipeline/pipeline.go Run context.Background":   "Run is the documented non-cancellable entry point; RunContext takes a ctx",
		"testkit/epoch.go RunEpochs context.Background": "the harness drives every epoch to completion",
	}
	// Seeded generators are fine: rand.New(rand.NewSource(seed)) and the
	// types they build. Every other math/rand name is a top-level draw.
	seeded := map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
		"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true}
	forbidden := func(pkg, name string) bool {
		switch pkg {
		case "time":
			return name == "Now" || name == "Since" || name == "Until"
		case "context":
			return name == "Background" || name == "TODO"
		case "math/rand", "math/rand/v2":
			return !seeded[name]
		}
		return false
	}
	fset, files := parseLibrary(t)
	seen := map[string]bool{}
	flag := func(pos token.Pos, key string) {
		if _, ok := allowed[key]; ok {
			seen[key] = true
			return
		}
		t.Errorf("%s: %s", fset.Position(pos), key)
	}
	for _, lf := range files {
		for _, imp := range lf.file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "crypto/rand" || p == "expvar" {
				flag(imp.Pos(), lf.rel+" import "+p)
			}
		}
		lf.eachFunc(func(fn string, n ast.Node) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			if pkg, ok := lf.imports[id.Name]; ok && forbidden(pkg, sel.Sel.Name) {
				flag(sel.Pos(), lf.rel+" "+fn+" "+id.Name+"."+sel.Sel.Name)
			}
		})
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allowed site %q no longer exists; drop it from the list", key)
		}
	}
}

// TestSentinelsComparedWithErrorsIs: library code matches a sentinel error
// (io.EOF, an Err* variable) with errors.Is, never == or !=. Every layer
// wraps what it passes on with %w, so an identity comparison that holds
// today stops matching once a layer below starts wrapping.
func TestSentinelsComparedWithErrorsIs(t *testing.T) {
	sentinel := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return strings.HasPrefix(x.Name, "Err")
		case *ast.SelectorExpr:
			return strings.HasPrefix(x.Sel.Name, "Err") || x.Sel.Name == "EOF"
		}
		return false
	}
	isNil := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "nil" }
	fset, files := parseLibrary(t)
	for _, lf := range files {
		lf.eachFunc(func(fn string, n ast.Node) {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) || isNil(b.X) || isNil(b.Y) {
				return
			}
			if sentinel(b.X) || sentinel(b.Y) {
				t.Errorf("%s: %s compares a sentinel error with %s; use errors.Is", fset.Position(b.Pos()), fn, b.Op)
			}
		})
	}
}

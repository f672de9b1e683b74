package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"

	"repro/internal/analysis/framework"
)

// vetConfig is the unit-checker protocol's per-package configuration file,
// written by the go command when surveyorlint is used via
// `go vet -vettool=...`. Field names follow x/tools' unitchecker.Config.
type vetConfig struct {
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetMode runs the analyzers over one package described by a .cfg file and
// returns the process exit code: 0 clean, 2 findings (the go vet
// convention), 1 on protocol or type-check errors.
func vetMode(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyorlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "surveyorlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The go command caches each package's VetxOutput as its facts file
	// and hands it to dependents; no analyzer exports facts, so the file
	// is always empty. It must still be written: without it the go
	// command caches nothing and re-runs the tool on every dependency of
	// every later vet. A VetxOnly package (a dependency only, the whole
	// standard library included) needs nothing else.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "surveyorlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "surveyorlint:", err)
			return 1
		}
		files = append(files, f)
	}
	info := framework.NewInfo()
	conf := types.Config{
		Importer: framework.ExportImporter(fset, cfg.PackageFile, cfg.ImportMap),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "surveyorlint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	pkg := &framework.Package{
		Path:      cfg.ImportPath,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	findings, err := framework.Run(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyorlint:", err)
		return 1
	}
	allows, malformed := framework.CollectAllows(pkg, knownAnalyzers())
	kept, unused := framework.Suppress(findings, allows)
	all := append(append(kept, malformed...), unused...)
	framework.SortFindings(all)
	for _, f := range all {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
		for _, fix := range f.Fixes {
			fmt.Fprintf(os.Stderr, "\tsuggested fix: %s\n", fix.Message)
		}
	}
	if len(all) > 0 {
		return 2
	}
	return 0
}

// buildFingerprint hashes the executable so `go vet` can cache results
// keyed by the tool build, as the -V=full protocol expects.
func buildFingerprint() string {
	exe, err := os.Executable()
	if err != nil {
		return "devel"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "devel"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "devel"
	}
	return fmt.Sprintf("devel buildID=%x", h.Sum(nil)[:16])
}

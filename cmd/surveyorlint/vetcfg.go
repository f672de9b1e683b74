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
	"sort"

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
	PackageVetx               map[string]string
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

	// The go command threads each dependency's serialized facts file in
	// through PackageVetx and expects this package's accumulated facts
	// (imported ∪ newly exported) back at VetxOutput, caching the file
	// keyed by the tool fingerprint. Even a VetxOnly run (a package
	// analyzed solely as a dependency) must therefore run the analyzers
	// for their fact side effects; only the diagnostics are discarded.
	facts := framework.NewFactStore(analyzers)
	for _, path := range sortedKeys(cfg.PackageVetx) {
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			fmt.Fprintln(os.Stderr, "surveyorlint:", err)
			return 1
		}
		if err := facts.Decode(data); err != nil {
			fmt.Fprintf(os.Stderr, "surveyorlint: facts of %s: %v\n", path, err)
			return 1
		}
	}
	writeVetx := func() int {
		if cfg.VetxOutput == "" {
			return 0
		}
		data, err := facts.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "surveyorlint:", err)
			return 1
		}
		if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "surveyorlint:", err)
			return 1
		}
		return 0
	}

	// Dependency-only packages (VetxOnly, including the whole standard
	// library) are analyzed purely for their fact side effects — skip
	// the analyzers that produce none, and skip the type check entirely
	// when no analyzer produces facts at all.
	torun := analyzers
	if cfg.VetxOnly {
		torun = nil
		for _, a := range analyzers {
			if len(a.FactTypes) > 0 {
				torun = append(torun, a)
			}
		}
		if len(torun) == 0 {
			return writeVetx()
		}
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
			// Pass the imported facts through so dependents still see
			// them; this package contributes none.
			return writeVetx()
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
	findings, err := framework.Run(pkg, torun, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveyorlint:", err)
		return 1
	}
	if code := writeVetx(); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		return 0
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

// sortedKeys returns m's keys sorted, for deterministic fact loading.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

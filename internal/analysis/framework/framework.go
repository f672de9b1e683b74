// Package framework is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library. The
// module is deliberately dependency-free (the build environment has no
// network access), so instead of importing x/tools this package mirrors its
// API shape — Analyzer, Pass, Diagnostic, SuggestedFix — closely enough
// that the surveyorlint analyzers could be ported to the real framework by
// changing one import path.
//
// Type information comes from the standard library alone: packages are
// parsed with go/parser and type-checked with go/types against the gc
// export data the go command already produced for every dependency (the
// vet driver receives those files in its package config; analysistest
// asks `go list -export` for the standard library's). No source
// re-typechecking of dependencies, no downloads.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then details.
	Doc string

	// Run applies the analyzer to one package and reports diagnostics
	// through pass.Report. The returned value is ignored by the driver
	// (kept for x/tools API parity).
	Run func(*Pass) (any, error)
}

// A Pass is the interface an analyzer's Run function uses to inspect one
// type-checked package and report findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string

	// SuggestedFixes optionally carries mechanical rewrites. The driver
	// prints them; it does not apply them.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one mechanical rewrite for a diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// A Finding is a Diagnostic resolved against a file set and attributed to
// the analyzer that produced it — the driver's unit of output.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Fixes    []SuggestedFix
}

// Run applies each analyzer to the package and returns the findings in
// reported order. Each package is analyzed on its own: no analyzer
// carries state from one package to another.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		pass.Report = func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
				Fixes:    d.SuggestedFixes,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	return out, nil
}

// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named check, a
// Pass hands it one type-checked package, and diagnostics flow back through
// Pass.Report.
//
// The repository deliberately carries no third-party modules (the simulator
// is pinned byte-for-byte by its own code alone, see internal/rng), so
// instead of importing x/tools this package mirrors the subset of its API
// that the dewrite-vet analyzers need. An analyzer written against this
// package is source-compatible with the upstream framework: if the module
// ever grows a vendored x/tools, the import path is the only change.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//dewrite:allow <name> <reason>" suppression comments.
	// It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: one summary line, a blank line,
	// then free-form detail. The summary line is shown by "dewrite-vet help".
	Doc string

	// Run applies the check to one package. Findings are delivered through
	// pass.Report; the error return is reserved for analyzer malfunction
	// (never for "the code is bad").
	Run func(pass *Pass) (interface{}, error)
}

// A Pass provides one type-checked package to an analyzer's Run function
// and carries the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet

	// Files are the package's parsed source files, comments included.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds the package's type-checking facts.
	TypesInfo *types.Info

	// Report delivers one finding. Analyzers usually call Reportf instead.
	Report func(Diagnostic)
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding tied to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// TypeOf returns the type of expression e, or nil if not found.
// It mirrors (*types.Info).TypeOf but tolerates a nil Pass.TypesInfo.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object denoted by identifier id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.ObjectOf(id)
}

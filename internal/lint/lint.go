// Package lint is the dewrite-vet analyzer suite: custom static checks that
// mechanically enforce the simulator's cross-cutting invariants — seeded
// determinism, nil-safe instrumentation, frozen report schemas — and the serving layer's concurrency contracts:
// all-or-nothing atomic field access, lock ordering and balanced unlocks,
// goroutine shutdown paths, and books-balance accounting on every response
// path. cmd/dewrite-vet drives the suite from CI; see DESIGN.md sections 10
// and 15 for the rationale behind each invariant.
//
// A justified violation is silenced in place with a directive comment on the
// offending line or the line directly above:
//
//	start := time.Now() //dewrite:allow determinism wall-clock is observational
//
// The reason is mandatory: a suppression without one does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"dewrite/internal/lint/analysis"
	"dewrite/internal/lint/packages"
)

// Analyzers returns the full dewrite-vet suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism, NilSafe, ReportCompat,
		AtomicHygiene, LockDiscipline, GoroutineLifecycle, BooksBalance,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Diagnostic is one finding with its position resolved, ready to print.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// allowRe matches the suppression directive. The analyzer name and a
// non-empty reason are both required.
var allowRe = regexp.MustCompile(`^\s*dewrite:allow\s+(\w+)\s+\S`)

// RunPackage applies the analyzers to one loaded package, filters findings
// through //dewrite:allow suppressions, and returns the survivors sorted by
// position.
func RunPackage(pkg *packages.Package, analyzers ...*analysis.Analyzer) ([]Diagnostic, error) {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	allowed := suppressionIndex(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if allowed[suppressKey{file: pos.Filename, line: pos.Line, analyzer: name}] ||
				allowed[suppressKey{file: pos.Filename, line: pos.Line - 1, analyzer: name}] {
				return
			}
			out = append(out, Diagnostic{Analyzer: name, Position: pos, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// suppressionIndex collects every //dewrite:allow directive in the package,
// keyed by (file, line, analyzer). A diagnostic is suppressed by a directive
// on its own line or the line directly above.
func suppressionIndex(pkg *packages.Package) map[suppressKey]bool {
	idx := make(map[suppressKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments don't carry directives
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				idx[suppressKey{file: pos.Filename, line: pos.Line, analyzer: m[1]}] = true
			}
		}
	}
	return idx
}

// pathBase returns the last element of an import path, the unit the
// analyzers' package gates work in ("dewrite/internal/sim" -> "sim").
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// exprIdents appends every identifier mentioned in e.
func exprIdents(e ast.Expr, dst []*ast.Ident) []*ast.Ident {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			dst = append(dst, id)
		}
		return true
	})
	return dst
}

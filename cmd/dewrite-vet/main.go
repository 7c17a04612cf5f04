// Command dewrite-vet runs the repository's custom static-analysis suite
// (internal/lint) over Go packages: determinism, nilsafe, reportcompat, and
// the serving layer's concurrency contracts — atomichygiene, lockdiscipline,
// goroutinelifecycle, booksbalance. It is the multichecker CI runs as a
// required step.
//
// Usage:
//
//	dewrite-vet [-list] [-json] [-only analyzer[,analyzer]] [packages...]
//
// Packages default to ./... resolved in the current module. With -json the
// findings are emitted as a JSON array of {file, line, col, analyzer,
// message} objects ("[]" when clean) for CI annotation tooling. The exit
// status is 0 when the tree is clean, 1 when any diagnostic fires, 2 on a
// driver or load failure. Justified violations are silenced in place with
// "//dewrite:allow <analyzer> <reason>" on the offending line or the line
// above; see DESIGN.md sections 10 and 15.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dewrite/internal/lint"
	"dewrite/internal/lint/analysis"
	"dewrite/internal/lint/packages"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dewrite-vet [flags] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		printAnalyzers(os.Stderr)
	}
	flag.Parse()

	if *list {
		printAnalyzers(os.Stdout)
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "dewrite-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := packages.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dewrite-vet: %v\n", err)
		os.Exit(2)
	}

	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, analyzers...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-vet: %s: %v\n", pkg.ImportPath, err)
			os.Exit(2)
		}
		all = append(all, diags...)
	}
	if *jsonOut {
		wd, _ := os.Getwd()
		if err := writeFindings(os.Stdout, findings(all, wd)); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s\n", d)
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

func printAnalyzers(w *os.File) {
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, summaryLine(a))
	}
}

func summaryLine(a *analysis.Analyzer) string {
	if i := strings.IndexByte(a.Doc, '\n'); i >= 0 {
		return a.Doc[:i]
	}
	return a.Doc
}

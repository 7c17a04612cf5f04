package lint_test

import (
	"os/exec"
	"strings"
	"testing"

	"dewrite/internal/lint"
	"dewrite/internal/lint/analysistest"
	"dewrite/internal/lint/packages"
)

// The fixture tests exercise each analyzer against three kinds of package:
// a gated package full of violations (every one carries a // want comment,
// including one suppressed case that must NOT be reported), a gated package
// that follows the rules, and a package outside the gate where even blatant
// violations are ignored.

func TestDeterminismFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.Determinism,
		"testdata/src/determinism/sim",
		"testdata/src/determinism/core",
		"testdata/src/determinism/attr",
		"testdata/src/determinism/shard",
		"testdata/src/determinism/chaos",
		"testdata/src/determinism/other",
	)
}

func TestPoolRecycleFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.PoolRecycle,
		"testdata/src/poolrecycle/workload",
		"testdata/src/poolrecycle/dedup",
		"testdata/src/poolrecycle/other",
	)
}

func TestNilSafeFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.NilSafe,
		"testdata/src/nilsafe/timeline",
		"testdata/src/nilsafe/attr",
		"testdata/src/nilsafe/monitor",
		"testdata/src/nilsafe/other",
	)
}

func TestReportCompatFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.ReportCompat,
		"testdata/src/reportcompat/sim",
		"testdata/src/reportcompat/dewrite-bench",
		"testdata/src/reportcompat/attr",
		"testdata/src/reportcompat/other",
	)
}

func TestAtomicHygieneFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.AtomicHygiene,
		"testdata/src/atomichygiene/shard",
		"testdata/src/atomichygiene/monitor",
		"testdata/src/atomichygiene/other",
	)
}

func TestLockDisciplineFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.LockDiscipline,
		"testdata/src/lockdiscipline/dewrite-serve",
		"testdata/src/lockdiscipline/shard",
		"testdata/src/lockdiscipline/other",
	)
}

func TestGoroutineLifecycleFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.GoroutineLifecycle,
		"testdata/src/goroutinelifecycle/dewrite-serve",
		"testdata/src/goroutinelifecycle/monitor",
		"testdata/src/goroutinelifecycle/other",
	)
}

func TestBooksBalanceFixtures(t *testing.T) {
	analysistest.Run(t, "../..", lint.BooksBalance,
		"testdata/src/booksbalance/dewrite-serve",
		"testdata/src/booksbalance/other",
	)
}

// TestRepoClean pins the tentpole invariant: the full dewrite-vet suite over
// the real repository reports zero diagnostics. Any new violation must be
// fixed or carry a justified //dewrite:allow before it lands.
func TestRepoClean(t *testing.T) {
	pkgs, err := packages.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg.ImportPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestInternalPackagesReached fails when an internal package is built into
// no command and no example: a package no program reads. The analyzers'
// fixture runner, which only this package's tests import, is the one
// exception.
func TestInternalPackagesReached(t *testing.T) {
	list := func(args ...string) []string {
		cmd := exec.Command("go", append([]string{"list"}, args...)...)
		cmd.Dir = "../.."
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{"dewrite/internal/lint/analysistest": true}
	for _, p := range list("-deps", "./cmd/...", "./examples/...") {
		reached[p] = true
	}
	for _, p := range list("./internal/...") {
		if !reached[p] {
			t.Errorf("%s is imported by no command or example", p)
		}
	}
}

// TestByName keeps the -only flag's lookup honest.
func TestByName(t *testing.T) {
	for _, a := range lint.Analyzers() {
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName of an unknown analyzer should return nil")
	}
}

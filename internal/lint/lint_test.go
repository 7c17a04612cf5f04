package lint_test

import (
	"fmt"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// unreachedOK lists the exported names of the root module that no program
// refers to but that stay, each with the reason: a test oracle, a checker
// of state the program keeps, a fault injector or a test seam.
var unreachedOK = map[string]string{
	"internal/timeline.Dist":                    "oracle: DistHist must match it on the expanded values",
	"internal/dedup.Tables.RetiredCount":        "checker: FuzzTablesRoundTrip and the checkpoint tests compare retired counts",
	"internal/dedup.Tables.IsDeduplicated":      "checker: whether a logical line shares its location",
	"internal/cache.Hierarchy.Levels":           "checker: FuzzHierarchy compares each level against the level oracle",
	"internal/integrity.Tree.Root":              "checker: the root digest a write must change",
	"internal/integrity.Tree.CorruptNode":       "fault injector: tampers with a stored node",
	"internal/core.Controller.Poisoned":         "checker: crash tests read which lines recovery poisoned",
	"internal/baseline.SecureNVM.ReadVerified":  "checker: the soak test reads through the integrity check",
	"internal/baseline.Shredder.ReadVerified":   "checker: the soak test reads through the integrity check",
	"internal/shard.Router.Global":              "oracle: inverts ShardOf and Local",
	"internal/shard.Directory.GlobalRefs":       "checker: what a barrier publishes",
	"internal/monitor.Registry.Get":             "checker: tests read gauges by name",
	"internal/monitor.Gauge.Value":              "checker: tests read a gauge through its handle",
	"internal/workload.MeanDupRatio":            "checker: the profiles average the paper's duplicate share",
	"internal/workload.MeanZeroRatio":           "checker: the profiles average the paper's zero-line share",
	"internal/metacache.Cache.Blocks":           "checker: New's set and way geometry",
	"internal/metacache.Cache.Contains":         "checker: residency without touching LRU state or statistics",
	"cmd/dewrite-serve.Server.Abort":            "fault injector: kill -9 in process",
	"cmd/dewrite-serve.Server.Snapshot":         "test seam: commits a snapshot generation on demand",
	"cmd/dewrite-serve.RetryClient.ServerStats": "checker: tests read the daemon's books through the client",
}

// stdInterfaces are the standard interfaces whose methods count as reached
// on every type that implements them, beside the module's own interfaces.
var stdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"sort", "Interface"}, {"io", "Reader"}, {"io", "Writer"},
	{"net/http", "Handler"}, {"encoding/json", "Marshaler"},
}

// TestExportedNamesReached fails when an exported package-level function,
// method, type or constant of the root module is referred to by no non-test
// file of the module or of the benchmark: API only tests call. A method
// also counts as reached when its receiver implements an interface that
// declares it, one of the module's or error or one of stdInterfaces. The
// two modules are loaded separately, so names match by package path,
// receiver and name, and method signatures by their printed form.
func TestExportedNamesReached(t *testing.T) {
	root, err := packages.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	bench, err := packages.Load("../../benchmark", "./...")
	if err != nil {
		t.Fatalf("loading benchmark: %v", err)
	}
	reached := map[string]bool{}
	for _, pkg := range append(root, bench...) {
		for _, obj := range pkg.TypesInfo.Uses {
			if key := exportedKey(obj); key != "" {
				reached[key] = true
			}
		}
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[string]*types.Package{}
	for _, pkg := range root {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = imp
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	for _, s := range stdInterfaces {
		p := imported[s.pkg]
		if p == nil || p.Scope().Lookup(s.name) == nil {
			t.Fatalf("no package of the module imports %s.%s; drop it from stdInterfaces", s.pkg, s.name)
		}
		ifaces = append(ifaces, p.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}

	var unreached []string
	for _, pkg := range root {
		if pkg.ImportPath == "dewrite/internal/lint/analysistest" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if key := exportedKey(obj); key != "" && !reached[key] {
				unreached = append(unreached, key)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				key := exportedKey(m)
				if key == "" || reached[key] || implementsDeclaring(named, m.Name(), ifaces) {
					continue
				}
				unreached = append(unreached, key)
			}
		}
	}
	stale := maps.Clone(unreachedOK)
	for _, key := range unreached {
		if unreachedOK[key] == "" {
			t.Errorf("%s is referred to by no command, example or benchmark file", key)
		}
		delete(stale, key)
	}
	for key := range stale {
		t.Errorf("allowlisted %s is reached or gone; drop it from unreachedOK", key)
	}
}

// exportedKey names an exported package-level function, method, type or
// constant of the dewrite module as "path.Name" or "path.Recv.Name", with
// the module prefix trimmed, and returns "" for anything else.
func exportedKey(obj types.Object) string {
	if obj.Pkg() == nil || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "dewrite/") {
		return ""
	}
	path := strings.TrimPrefix(obj.Pkg().Path(), "dewrite/")
	if fn, ok := obj.(*types.Func); ok {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return path + "." + fn.Name()
		}
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		named, ok := typ.(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		return path + "." + named.Obj().Name() + "." + fn.Name()
	}
	switch obj.(type) {
	case *types.TypeName, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return path + "." + obj.Name()
		}
	}
	return ""
}

// implementsDeclaring reports whether *named implements one of ifaces that
// declares a method called method. Signatures compare by the printed form
// of their parameter and result types, since an interface and its
// implementation may come from different loads.
func implementsDeclaring(named *types.Named, method string, ifaces []*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	sig := func(fn *types.Func) string {
		s := fn.Type().(*types.Signature)
		str := fmt.Sprint(s.Variadic())
		for _, tup := range []*types.Tuple{s.Params(), s.Results()} {
			for i := 0; i < tup.Len(); i++ {
				str += "," + types.TypeString(tup.At(i).Type(), (*types.Package).Path)
			}
			str += ";"
		}
		return str
	}
	for _, it := range ifaces {
		declares, implements := false, true
		for i := 0; i < it.NumMethods() && implements; i++ {
			want := it.Method(i)
			declares = declares || want.Name() == method
			sel := mset.Lookup(named.Obj().Pkg(), want.Name())
			implements = sel != nil && sig(sel.Obj().(*types.Func)) == sig(want)
		}
		if declares && implements {
			return true
		}
	}
	return false
}

// TestDocsNameExistingTests fails when README.md, DESIGN.md, EXPERIMENTS.md
// or benchmark/README.md cites a Test or Fuzz function that no _test.go file
// in the repository defines.
func TestDocsNameExistingTests(t *testing.T) {
	defined := map[string]bool{}
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	citeRe := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmark/README.md"} {
		src, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRe.FindAllString(string(src), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no test file defines", doc, name)
			}
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

package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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

// dynamicInterfaces are the standard interfaces a callee finds by a type
// assertion on a value it took as an interface (fmt's Stringer and error,
// json's Marshaler). A type converted to any interface reaches their
// methods, and those of every interface the same load asserts to.
var dynamicInterfaces = []struct{ pkg, name string }{
	{"", "error"}, {"fmt", "Stringer"}, {"encoding/json", "Marshaler"},
}

// TestExportedNamesReached fails when an exported package-level function,
// method, type or constant of the root module is referred to by no non-test
// file of the module or of the benchmark: API only tests call. A method
// also counts as reached when a non-test file converts its receiver to an
// interface that declares it, or to any interface when the method is one
// of dynamicInterfaces' or of an interface a non-test file of the same
// load asserts to. The two modules are loaded separately, so names match by
// package path, receiver and name.
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
	for _, load := range [][]*packages.Package{root, bench} {
		for _, pkg := range load {
			for _, obj := range pkg.TypesInfo.Uses {
				if key := exportedKey(obj); key != "" {
					reached[key] = true
				}
			}
		}
		for _, m := range methodsThroughInterfaces(load) {
			if key := exportedKey(m); key != "" {
				reached[key] = true
			}
		}
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
				if key := exportedKey(named.Method(i)); key != "" && !reached[key] {
					unreached = append(unreached, key)
				}
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

// methodsThroughInterfaces returns the methods that load's files reach
// through an interface: those of each interface a concrete type is
// converted to, and, for a type converted to any interface, those of each
// dynamicInterfaces entry or asserted interface the type implements.
func methodsThroughInterfaces(load []*packages.Package) []types.Object {
	var convs []conversion
	var dynamic []*types.Interface
	imported := map[string]*types.Package{}
	for _, pkg := range load {
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = imp
		}
		c, asserted := conversions(pkg)
		convs, dynamic = append(convs, c...), append(dynamic, asserted...)
	}
	for _, d := range dynamicInterfaces {
		if d.pkg == "" {
			dynamic = append(dynamic, types.Universe.Lookup(d.name).Type().Underlying().(*types.Interface))
		} else if p := imported[d.pkg]; p != nil {
			dynamic = append(dynamic, p.Scope().Lookup(d.name).Type().Underlying().(*types.Interface))
		}
	}
	var methods []types.Object
	for _, c := range convs {
		targets := []*types.Interface{c.to}
		for _, d := range dynamic {
			if types.Implements(c.from, d) {
				targets = append(targets, d)
			}
		}
		mset := types.NewMethodSet(c.from)
		for _, it := range targets {
			for i := 0; i < it.NumMethods(); i++ {
				if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					methods = append(methods, sel.Obj())
				}
			}
		}
	}
	return methods
}

// A conversion is a concrete type converted to an interface.
type conversion struct {
	from types.Type
	to   *types.Interface
}

// conversions returns each concrete type that pkg's files convert to an
// interface, with that interface: in an assignment, a typed variable's
// initial value, a call's argument, an explicit conversion, a return, a
// composite literal's element or a channel send. It also returns the
// interfaces the files assert to, in a type assertion or a type switch.
func conversions(pkg *packages.Package) (convs []conversion, asserted []*types.Interface) {
	info := pkg.TypesInfo
	assert := func(e ast.Expr) {
		if it, ok := info.TypeOf(e).Underlying().(*types.Interface); ok {
			asserted = append(asserted, it)
		}
	}
	conv := func(to types.Type, e ast.Expr) {
		from := info.TypeOf(e)
		if to == nil || from == nil || types.IsInterface(from) {
			return
		}
		if _, tuple := from.(*types.Tuple); tuple {
			return
		}
		if it, ok := to.Underlying().(*types.Interface); ok {
			convs = append(convs, conversion{from, it})
		}
	}
	var results *types.Tuple // the enclosing function's
	var visit func(n ast.Node) bool
	within := func(sig types.Type, body *ast.BlockStmt) {
		outer := results
		results = sig.(*types.Signature).Results()
		ast.Inspect(body, visit)
		results = outer
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				within(info.Defs[n.Name].Type(), n.Body)
			}
			return false
		case *ast.FuncLit:
			within(info.TypeOf(n), n.Body)
			return false
		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, e := range n.Results {
					conv(results.At(i).Type(), e)
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, e := range n.Rhs {
					conv(info.TypeOf(n.Lhs[i]), e)
				}
			}
		case *ast.ValueSpec:
			for _, e := range n.Values {
				conv(info.TypeOf(n.Type), e)
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				assert(n.Type)
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if tv := info.Types[e]; tv.IsType() {
					assert(e)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				conv(ch.Elem(), n.Value)
			}
		case *ast.CallExpr:
			fn := info.Types[n.Fun]
			sig, ok := fn.Type.Underlying().(*types.Signature)
			switch {
			case fn.IsType() && len(n.Args) == 1:
				conv(fn.Type, n.Args[0])
			case ok && !fn.IsBuiltin():
				params, last := sig.Params(), sig.Params().Len()-1
				for i, e := range n.Args {
					if sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
						conv(params.At(last).Type().(*types.Slice).Elem(), e)
					} else if i <= last {
						conv(params.At(i).Type(), e)
					}
				}
			}
		case *ast.CompositeLit:
			var elem types.Type
			switch lit := info.TypeOf(n).Underlying().(type) {
			case *types.Struct:
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						conv(info.Uses[kv.Key.(*ast.Ident)].Type(), kv.Value)
					} else {
						conv(lit.Field(i).Type(), e)
					}
				}
				return true
			case *types.Slice:
				elem = lit.Elem()
			case *types.Array:
				elem = lit.Elem()
			case *types.Map:
				elem = lit.Elem()
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				conv(elem, e)
			}
		}
		return true
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, visit)
	}
	return convs, asserted
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

// TestDocsNameExistingTests fails when README.md, DESIGN.md, EXPERIMENTS.md,
// PAPER.md or benchmark/README.md cites a Test or Fuzz function that no
// _test.go file in the repository defines, or when one of the top-level
// documents, which describe the tree as it is, names an internal/ path that
// does not exist (benchmark/README.md also names a planned package).
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
	pathRe := regexp.MustCompile(`\binternal/[\w/.-]*\w`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "benchmark/README.md"} {
		src, err := os.ReadFile(filepath.Join("../..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citeRe.FindAllString(string(src), -1) {
			if !defined[name] {
				t.Errorf("%s cites %s, which no test file defines", doc, name)
			}
		}
		if strings.Contains(doc, "/") {
			continue
		}
		for _, path := range pathRe.FindAllString(string(src), -1) {
			if _, err := os.Stat(filepath.Join("../..", path)); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, path)
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

// TestMethodsThroughInterfacesFixture pins the conversion rule on a
// fixture: a method counts as reached through an interface the type is
// returned, passed, assigned, stored or sent as, through an interface code
// asserts to or names in a type switch, and through fmt's Stringer for a
// type held as any interface. Shredder.Read, which only happens to satisfy
// Device, and Quiet.String, whose type is never held as an interface, are
// not reached.
func TestMethodsThroughInterfacesFixture(t *testing.T) {
	pkgs, err := packages.LoadDirs("../..", filepath.Join("testdata", "src", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range methodsThroughInterfaces(pkgs) {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		got = append(got, recv.(*types.Named).Obj().Name()+"."+m.Name())
	}
	slices.Sort(got)
	got = slices.Compact(got)
	want := []string{"Assigned.Write", "Controller.Read", "Controller.Write", "Counter.Read",
		"Counter.Write", "Declared.Write", "Label.String", "Sent.Write", "Shredder.Close",
		"Shredder.Set", "Shredder.String", "Shredder.Write"}
	if !slices.Equal(got, want) {
		t.Errorf("reached through interfaces %v, want %v", got, want)
	}
}

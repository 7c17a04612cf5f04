package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// goldenIDs is the cross-section exercised by the parallel-determinism test:
// performance figures, a controller-replay table, ablations with modified
// profiles, and the percentile table. TableI is excluded by design — it
// measures host wall-clock hash throughput and is nondeterministic even
// sequentially.
var goldenIDs = []string{"fig12", "fig14", "abl-pna", "abl-wear", "tail"}

// renderAll runs the experiments over a fresh suite at the given worker
// count (prefilling the shared grid first when parallel) and renders every
// table to text.
func renderAll(t *testing.T, workers int) []string {
	t.Helper()
	s := NewSuite(QuickOptions())
	var exps []Experiment
	for _, id := range goldenIDs {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown golden experiment %q", id)
		}
		exps = append(exps, e)
	}
	if workers > 1 {
		s.Prefill(workers)
	}
	var out []string
	for _, oc := range RunAll(s, exps, workers) {
		for _, tb := range oc.Tables {
			out = append(out, tb.String())
		}
	}
	return out
}

// TestParallelMatchesSequential is the engine's determinism contract: the
// rendered tables of a parallel run must be byte-identical to the sequential
// run, table for table.
func TestParallelMatchesSequential(t *testing.T) {
	seq := renderAll(t, 1)
	par := renderAll(t, 4)
	if len(seq) != len(par) {
		t.Fatalf("table count: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("table %d differs between sequential and parallel runs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				i, seq[i], par[i])
		}
	}
}

// TestForEachCoversAllIndicesOnce checks the pool's dispatch: every index in
// [0, n) runs exactly once, at any worker count (including degenerate ones).
func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var counts [n]int32
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachZeroJobs must return without spawning anything.
func TestForEachZeroJobs(t *testing.T) {
	ForEach(8, 0, func(int) { t.Fatal("job called for n=0") })
}

// TestWorkersNormalization pins the flag semantics: non-positive requests
// fall back to the scheduler's effective parallelism, positive ones pass
// through.
func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", Workers(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
	if Workers(-3) != Workers(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS default", Workers(-3))
	}
}

// TestWorkersRespectsGOMAXPROCS pins the default's source of truth: Workers(0)
// must read runtime.GOMAXPROCS(0) — which container runtimes and the user can
// lower below the raw CPU count — not runtime.NumCPU. Temporarily narrowing
// the scheduler must narrow the default with it.
func TestWorkersRespectsGOMAXPROCS(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	if got := Workers(0); got != 2 {
		t.Errorf("Workers(0) under GOMAXPROCS(2) = %d, want 2", got)
	}
}

package sim

import (
	"runtime"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/workload"
)

// TestRunAllocationsPerRequest pins the harness's request step at zero
// allocations: on a warm DeWrite controller, Run over a prepared stream of
// 2N requests allocates exactly what a run over its first N does, so
// whatever a run allocates (the CPU model, the Result) is per run, never
// per request. Each count is the fewer of two runs, since the runtime
// itself may allocate once in a window on a busy host.
func TestRunAllocationsPerRequest(t *testing.T) {
	prof := smallProfile()
	const n = 4000
	full := Prepare(prof, Options{Requests: 2 * n, Seed: 5})
	half := &Prepared{App: full.App, Requests: full.Requests[:n]}
	mem := NewMemory(SchemeDeWrite, prof.WorkingSetLines, testConfig())
	run := func(p *Prepared) uint64 {
		opts := Options{Requests: len(p.Requests), Prepared: p}
		return mallocs(func() { Run(prof.Name, SchemeDeWrite.String(), mem, prof, opts) })
	}
	for i := 0; i < 3; i++ {
		run(full) // warm the controller's tables, caches and pads
	}
	short := min(run(half), run(half))
	long := min(run(full), run(full))
	if short != long {
		t.Errorf("Run allocated %d times over %d requests and %d times over %d: the request step allocates",
			short, n, long, 2*n)
	}
}

// mallocs returns the heap allocations f makes, counted exactly: unlike
// testing.AllocsPerRun, which truncates its average to an integer and so
// cannot fail a bound below one allocation per call.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNewMemoryAllocations bounds building a DeWrite memory at the
// benchmark's geometry: its four metadata-cache partitions each hold their
// ways in one slice, so the count does not grow with their set counts.
func TestNewMemoryAllocations(t *testing.T) {
	prof, _ := workload.ByName("lbm")
	cfg := config.Default()
	got := min(mallocs(func() { NewMemory(SchemeDeWrite, prof.WorkingSetLines, cfg) }),
		mallocs(func() { NewMemory(SchemeDeWrite, prof.WorkingSetLines, cfg) }))
	if got > 20 {
		t.Errorf("NewMemory(DeWrite) made %d mallocs, want at most 20", got)
	}
	t.Logf("NewMemory(DeWrite): %d mallocs", got)
}

package core

import (
	"runtime"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// TestControllerAllocationsSteadyState pins the write/read hot path of the
// DeWrite controller at (near) zero steady-state allocations: scratch arrays
// replace per-call ciphertext buffers, ReadInto replaces the allocating Read,
// the dedup tables are dense and reuse emptied fingerprint chains. Once the
// working set is touched nothing should allocate; the bound leaves room for
// a rare doubling of the fingerprint index. Requests are generated a
// batch at a time outside the counted calls, so only the controller is
// measured (the generator's pooled buffers allocate under the race
// detector, which drops a quarter of sync.Pool Puts).
func TestControllerAllocationsSteadyState(t *testing.T) {
	for _, app := range []string{"mcf", "vips", "lbm"} {
		prof, ok := workload.ByName(app)
		if !ok {
			t.Fatalf("%s profile missing", app)
		}
		prof.WorkingSetLines = 512
		ctrl := New(Options{DataLines: prof.WorkingSetLines, Config: config.Default()})
		gen := workload.NewGenerator(prof, 43)

		var now units.Time
		batch := make([]trace.Request, 1000)
		run := func() {
			for _, req := range batch {
				// The line lives on this frame's stack: a controller path
				// that let its data or destination escape would move it to
				// the heap on every request.
				var line [config.LineSize]byte
				if req.Op == trace.Write {
					copy(line[:], req.Data)
					now = ctrl.Write(now, req.Addr, line[:])
				} else {
					now = ctrl.ReadInto(now, req.Addr, line[:])
				}
			}
		}
		// Warm until every data and metadata line has been touched (lbm
		// deduplicates 90 % of its writes, so it places new lines slowly),
		// then count over as many requests again.
		const passes = 200
		var counted uint64
		for pass := 0; pass < 2*passes; pass++ {
			for i := range batch {
				batch[i] = gen.Next()
			}
			if pass < passes {
				run()
			} else {
				counted += mallocs(run)
			}
		}
		if avg := float64(counted) / float64(passes*len(batch)); avg > 0.001 {
			t.Errorf("%s: steady-state request: %.4f mallocs/op, want <= 0.001", app, avg)
		}
	}
}

// TestNewAllocationsIndependentOfCapacity: the address-indexed tables grow
// on first touch, so building a controller must not size anything by its
// line count. 4 Mi lines of 8-byte entries would be 32 MiB per table.
func TestNewAllocationsIndependentOfCapacity(t *testing.T) {
	opts := Options{DataLines: 1 << 22, Config: config.Default()}
	if got := allocatedBytes(func() { New(opts) }); got >= 1<<20 {
		t.Fatalf("New over %d lines allocated %d bytes, want < 1 MiB", opts.DataLines, got)
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

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

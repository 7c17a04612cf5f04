package cpu

import (
	"runtime"
	"testing"

	"dewrite/internal/units"
)

// TestMachineAllocationsSteadyState pins the persist and load windows at
// zero steady-state allocations: popping a full window's head must shift
// the FIFO in place, or the next append reallocates every few requests.
func TestMachineAllocationsSteadyState(t *testing.T) {
	m := NewMachine(2)
	var i int
	step := func() {
		th := i % 2
		m.Execute(th, 10)
		if i%3 == 0 {
			m.RetireRead(th, m.IssueRead(th).Add(75*units.Nanosecond))
		} else {
			m.RetireWrite(th, m.IssueWrite(th).Add(300*units.Nanosecond))
		}
		i++
	}
	for k := 0; k < 1000; k++ {
		step()
	}
	const n = 100000
	counted := mallocs(func() {
		for k := 0; k < n; k++ {
			step()
		}
	})
	if avg := float64(counted) / n; avg > 0.001 {
		t.Errorf("steady-state request: %.4f mallocs/op, want <= 0.001", avg)
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

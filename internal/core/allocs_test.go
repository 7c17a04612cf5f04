package core

import (
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// TestControllerAllocationsSteadyState pins the write/read hot path of the
// DeWrite controller at (near) zero steady-state allocations: scratch arrays
// replace per-call ciphertext buffers, ReadInto replaces the allocating Read,
// and the dedup tables recycle their location records. The small slack
// absorbs rare map rehashes.
func TestControllerAllocationsSteadyState(t *testing.T) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	prof.WorkingSetLines = 512
	ctrl := New(Options{DataLines: prof.WorkingSetLines, Config: config.Default()})
	gen := workload.NewGenerator(prof, 43)
	gen.SetRecycle(true)

	var now units.Time
	step := func() {
		// The line lives on this frame's stack: a controller path that let
		// its data or destination escape would move it to the heap on every
		// request.
		var line [config.LineSize]byte
		req := gen.Next()
		if req.Op == trace.Write {
			copy(line[:], req.Data)
			now = ctrl.Write(now, req.Addr, line[:])
		} else {
			now = ctrl.ReadInto(now, req.Addr, line[:])
		}
	}
	for i := 0; i < 20000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5000, step); avg > 0.05 {
		t.Errorf("steady-state request: %.3f allocs/op, want <= 0.05", avg)
	}
}

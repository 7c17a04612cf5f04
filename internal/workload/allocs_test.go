package workload

import (
	"runtime"
	"testing"
)

// TestNextAllocationsRecycled pins the generator's steady-state allocation
// rate in recycle mode at zero: once the working set's shadow lines exist,
// every new line buffer comes from the pool (fed by the buffers that later
// requests displace), and the bookkeeping maps have reached their final size.
func TestNextAllocationsRecycled(t *testing.T) {
	prof, ok := ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	prof.WorkingSetLines = 512
	gen := NewGenerator(prof, 42)
	gen.SetRecycle(true)
	for i := 0; i < 20000; i++ {
		gen.Next()
	}
	if avg := testing.AllocsPerRun(5000, func() { gen.Next() }); avg != 0 {
		t.Errorf("steady-state Next: %.3f allocs/op, want 0", avg)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestStreamAllocationsRecycled: requests taken through a Stream in recycle
// mode allocate nothing once warm, on either goroutine. The chunks and their
// hold lists are reused, and every held buffer returns to the pool when its
// chunk comes back. Mallocs are counted exactly (AllocsPerRun truncates its
// average and would also resize the pool by changing GOMAXPROCS).
func TestStreamAllocationsRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random share of Puts")
	}
	prof, ok := ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	prof.WorkingSetLines = 512
	gen := NewGenerator(prof, 42)
	gen.SetRecycle(true)
	const warm, counted = 8, 8 // chunks
	s := NewStream(gen, (warm+counted+1)*streamChunk, 0)
	defer s.Close()
	for i := 0; i < warm; i++ {
		s.Next()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < counted; i++ {
		s.Next()
	}
	runtime.ReadMemStats(&after)
	if avg := float64(after.Mallocs-before.Mallocs) / (counted * streamChunk); avg > 0.001 {
		t.Errorf("steady-state streamed request: %.4f mallocs/op, want <= 0.001", avg)
	}
}

package workload

import (
	"runtime"
	"testing"

	"dewrite/internal/trace"
)

// TestNextAllocationsRecycled pins the generator's steady-state allocation
// rate in recycle mode at zero: every write builds its content in place in
// the shadow and returns that line, and the address log's growth is
// amortized away.
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

// TestStreamAllocationsRecycled: requests taken through a Stream in recycle
// mode allocate nothing once warm, on either goroutine. The chunks and their
// payload blocks are reused when they come back. Mallocs are counted exactly
// (AllocsPerRun truncates its average).
func TestStreamAllocationsRecycled(t *testing.T) {
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

// TestGenerateAllocationsPerBlock pins materialization's payload cost: with
// recycle off, Generate copies payloads into blocks of blockLines lines, so
// it makes one malloc per block, not one per write. The rest, 31 mallocs at
// this size, are the trace, the generator, its shadow, and the growth of its
// address log and block list.
func TestGenerateAllocationsPerBlock(t *testing.T) {
	prof, ok := ByName("lbm")
	if !ok {
		t.Fatal("lbm profile missing")
	}
	const n = 20000
	writes := 0
	for _, r := range Generate(prof, 42, n).Requests {
		if r.Op == trace.Write {
			writes++
		}
	}
	blocks := (writes + blockLines - 1) / blockLines
	avg := testing.AllocsPerRun(3, func() { Generate(prof, 42, n) })
	t.Logf("%d writes, %d blocks, %.0f mallocs", writes, blocks, avg)
	if max := float64(blocks + 40); avg > max {
		t.Errorf("Generate of %d requests (%d writes): %.0f mallocs, want <= %.0f", n, writes, avg, max)
	}
}

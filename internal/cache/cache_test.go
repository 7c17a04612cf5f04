package cache

import (
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

func tinyHierarchy() *Hierarchy {
	cycle := units.NewClock(config.CPUHz).Period()
	return NewHierarchy([]config.CacheLevel{
		{Name: "L1", SizeBytes: 4 * config.LineSize, Ways: 2, Latency: 4 * cycle},
		{Name: "L2", SizeBytes: 16 * config.LineSize, Ways: 4, Latency: 12 * cycle},
	})
}

func TestColdMissThenHit(t *testing.T) {
	h := tinyHierarchy()
	res := h.Access(42, false)
	if !res.MemFill || res.HitLevel != -1 {
		t.Fatalf("cold access = %+v, want full miss", res)
	}
	res = h.Access(42, false)
	if res.HitLevel != 0 || res.MemFill {
		t.Fatalf("second access = %+v, want L1 hit", res)
	}
}

func TestLatencyAccumulatesDownTheStack(t *testing.T) {
	h := tinyHierarchy()
	h.Access(1, false) // fill
	l1 := h.Access(1, false).Latency
	// Evict 1 from L1 only: touch enough conflicting lines.
	// L1 has 2 sets; lines 1,3,5,7 map to set 1.
	h.Access(3, false)
	h.Access(5, false)
	res := h.Access(1, false)
	if res.HitLevel != 1 {
		t.Fatalf("expected L2 hit, got %+v", res)
	}
	if res.Latency <= l1 {
		t.Fatal("L2 hit should cost more than L1 hit")
	}
}

func TestDirtyEvictionReachesMemory(t *testing.T) {
	h := tinyHierarchy()
	var writebacks []uint64
	// Store to many distinct lines in the same sets to force evictions
	// through both levels. Lines all even → same set parity.
	for i := uint64(0); i < 64; i++ {
		res := h.Access(i*2, true)
		writebacks = append(writebacks, res.Writebacks...)
	}
	if len(writebacks) == 0 {
		t.Fatal("no dirty lines ever reached memory")
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	h := tinyHierarchy()
	var writebacks int
	for i := uint64(0); i < 256; i++ {
		res := h.Access(i, false) // loads only — nothing dirty
		writebacks += len(res.Writebacks)
	}
	if writebacks != 0 {
		t.Fatalf("%d writebacks from clean lines", writebacks)
	}
}

func TestStoreHitDirtiesL1(t *testing.T) {
	h := tinyHierarchy()
	h.Access(10, true) // fill dirty
	// Evict from L1 by conflict: set of 10 is 0; lines 12,14 also set 0.
	res1 := h.Access(12, false)
	res2 := h.Access(14, false)
	res3 := h.Access(16, false) // 10's L1 eviction must carry dirtiness to L2
	_ = res1
	_ = res2
	_ = res3
	// Now evict 10 from L2 via pressure and expect a memory writeback.
	var wb []uint64
	for i := uint64(0); i < 64; i++ {
		res := h.Access(100+i*2, false)
		wb = append(wb, res.Writebacks...)
	}
	found := false
	for _, a := range wb {
		if a == 10 {
			found = true
		}
	}
	if !found {
		t.Fatal("dirty line 10 never written back to memory")
	}
}

func TestPromotionOnLowerHit(t *testing.T) {
	h := tinyHierarchy()
	h.Access(7, false)
	// Push 7 out of L1.
	h.Access(9, false)
	h.Access(11, false)
	res := h.Access(7, false)
	if res.HitLevel != 1 {
		t.Fatalf("expected L2 hit, got level %d", res.HitLevel)
	}
	// After promotion it is an L1 hit again.
	res = h.Access(7, false)
	if res.HitLevel != 0 {
		t.Fatalf("expected L1 hit after promotion, got %d", res.HitLevel)
	}
}

func TestHitRateStats(t *testing.T) {
	h := tinyHierarchy()
	h.Access(1, false)
	h.Access(1, false)
	h.Access(1, false)
	l1 := h.Levels()[0]
	if got := l1.HitRate(); got != 2.0/3.0 {
		t.Fatalf("L1 hit rate = %v, want 2/3", got)
	}
}

func TestDefaultHierarchyBuilds(t *testing.T) {
	h := NewHierarchy(config.DefaultHierarchy())
	if len(h.Levels()) != 4 {
		t.Fatalf("levels = %d", len(h.Levels()))
	}
	src := rng.New(1)
	fills := 0
	for i := 0; i < 20000; i++ {
		res := h.Access(src.Uint64n(100000), src.Bool(0.3))
		if res.MemFill {
			fills++
		}
	}
	if fills == 0 || fills == 20000 {
		t.Fatalf("degenerate fill count %d", fills)
	}
}

func TestWorkingSetResidency(t *testing.T) {
	// A working set smaller than L1 never misses after warmup.
	h := tinyHierarchy()
	for round := 0; round < 5; round++ {
		for a := uint64(0); a < 4; a++ {
			res := h.Access(a, false)
			if round > 0 && res.HitLevel != 0 {
				t.Fatalf("round %d addr %d: hit level %d", round, a, res.HitLevel)
			}
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLevel(config.CacheLevel{Name: "bad", SizeBytes: config.LineSize, Ways: 4})
}

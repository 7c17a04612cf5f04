package metacache

import (
	"slices"
	"testing"
	"testing/quick"

	"dewrite/internal/rng"
)

func small() *Cache { return New("test", 4*256, 256, 2) } // 2 sets × 2 ways

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(1, false) {
		t.Fatal("empty cache hit")
	}
	c.Insert(1, false)
	if !c.Lookup(1, false) {
		t.Fatal("inserted block missed")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Blocks 0, 2, 4 map to set 0 (block % 2 == 0).
	c.Insert(0, false)
	c.Insert(2, false)
	c.Lookup(0, false) // touch 0 so 2 becomes LRU
	ev, evicted := c.Insert(4, false)
	if !evicted || ev.Block != 2 {
		t.Fatalf("eviction = %+v/%v, want block 2", ev, evicted)
	}
	if !c.Contains(0) || !c.Contains(4) || c.Contains(2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := small()
	c.Insert(0, true)
	c.Insert(2, false)
	ev, evicted := c.Insert(4, false) // evicts LRU = 0 (dirty)
	if !evicted || !ev.Dirty || ev.Block != 0 {
		t.Fatalf("eviction = %+v/%v", ev, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small()
	c.Insert(0, false)
	c.Insert(2, false)
	c.Insert(4, false)
	if c.Stats().Writebacks != 0 {
		t.Fatal("clean eviction counted as writeback")
	}
}

func TestLookupWriteMarksDirty(t *testing.T) {
	c := small()
	c.Insert(0, false)
	c.Lookup(0, true)
	c.Insert(2, false)
	ev, _ := c.Insert(4, false)
	if !ev.Dirty {
		t.Fatal("write-touched block evicted clean")
	}
}

func TestInsertExistingRefreshesAndORsDirty(t *testing.T) {
	c := small()
	c.Insert(0, false)
	if _, evicted := c.Insert(0, true); evicted {
		t.Fatal("re-insert caused eviction")
	}
	c.Insert(2, false)
	ev, _ := c.Insert(4, false) // evicts 2 (0 was refreshed later... check LRU)
	// 0 was used at tick 1 and re-inserted at tick 2; 2 inserted at tick 3.
	// So LRU in set 0 is 0? No: used(0)=2, used(2)=3 → victim is 0, dirty.
	if ev.Block != 0 || !ev.Dirty {
		t.Fatalf("eviction = %+v, want dirty block 0", ev)
	}
}

func TestFlushAll(t *testing.T) {
	c := small()
	c.Insert(0, true)
	c.Insert(1, false)
	c.Insert(2, true)
	dirty := c.FlushAll()
	if len(dirty) != 2 {
		t.Fatalf("FlushAll returned %d blocks, want 2", len(dirty))
	}
	if got := c.FlushAll(); len(got) != 0 {
		t.Fatal("second flush found dirty blocks")
	}
	// Blocks remain cached after flush.
	if !c.Contains(0) || !c.Contains(1) || !c.Contains(2) {
		t.Fatal("flush dropped blocks")
	}
}

func TestInvalidateFreesWayAndReportsDirty(t *testing.T) {
	c := small()
	c.Insert(0, true)
	c.Insert(2, false)
	before := c.Stats()
	if dirty, present := c.Invalidate(0); !present || !dirty {
		t.Fatalf("Invalidate(0) = dirty %v present %v, want dirty and present", dirty, present)
	}
	if dirty, present := c.Invalidate(2); !present || dirty {
		t.Fatalf("Invalidate(2) = dirty %v present %v, want clean and present", dirty, present)
	}
	if _, present := c.Invalidate(4); present {
		t.Fatal("Invalidate of an uncached block reported it present")
	}
	if c.Stats() != before {
		t.Fatalf("Invalidate moved the counters: %+v, was %+v", c.Stats(), before)
	}
	// Both ways of set 0 are free again: two inserts evict nothing.
	for _, b := range []uint64{4, 6} {
		if _, evicted := c.Insert(b, false); evicted {
			t.Fatalf("Insert(%d) evicted from an invalidated set", b)
		}
	}
}

func TestHitRate(t *testing.T) {
	c := small()
	if c.HitRate() != 0 {
		t.Fatal("unused cache hit rate not 0")
	}
	c.Insert(0, false)
	c.Lookup(0, false)
	c.Lookup(1, false)
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestBlocksCapacity(t *testing.T) {
	c := New("x", 512*1024, 256, 8)
	if c.Blocks() != 2048 {
		t.Fatalf("Blocks = %d, want 2048", c.Blocks())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 0, 256, 8) },
		func() { New("x", 256, 256, 8) }, // 1 block < 8 ways
		func() { New("x", 1024, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNeverExceedsCapacityProperty(t *testing.T) {
	c := New("p", 16*256, 256, 4) // 16 blocks
	src := rng.New(3)
	f := func(n uint8) bool {
		for i := 0; i < int(n); i++ {
			b := src.Uint64n(1000)
			if !c.Lookup(b, src.Bool(0.5)) {
				c.Insert(b, src.Bool(0.5))
			}
		}
		// Count resident blocks.
		resident := 0
		for b := uint64(0); b < 1000; b++ {
			if c.Contains(b) {
				resident++
			}
		}
		return resident <= c.Blocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetSmallerThanCacheAlwaysHits(t *testing.T) {
	c := New("ws", 64*256, 256, 4) // 64 blocks
	// Touch 16 distinct blocks repeatedly: after the first pass, no misses.
	for round := 0; round < 10; round++ {
		for b := uint64(0); b < 16; b++ {
			if !c.Lookup(b, false) {
				c.Insert(b, false)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 16 {
		t.Fatalf("misses = %d, want 16 (cold only)", st.Misses)
	}
}

func TestPrefetchLines(t *testing.T) {
	for _, tc := range []struct{ entries, perLine, want int }{
		{256, 64, 4}, {1024, 64, 16}, {16, 64, 1}, {0, 64, 1}, {2048, 2048, 1},
	} {
		if got := PrefetchLines(tc.entries, tc.perLine); got != tc.want {
			t.Errorf("PrefetchLines(%d, %d) = %d, want %d", tc.entries, tc.perLine, got, tc.want)
		}
	}
}

func TestFillStopsAtLimit(t *testing.T) {
	c := New("f", 64*256, 256, 4)
	var got []uint64
	c.Fill(10, false, 8, 13, func(_ int, block uint64, _ Eviction, _ bool) {
		got = append(got, block)
	})
	if len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("installed %v, want [10 11 12]", got)
	}
	if c.Contains(13) || c.Stats().Inserts != 3 {
		t.Fatalf("fill crossed the limit: contains 13 = %v, stats %+v", c.Contains(13), c.Stats())
	}
	// A demand block at or past the limit installs nothing.
	c.Fill(13, true, 4, 13, nil)
	if c.Contains(13) || c.Stats().Inserts != 3 {
		t.Fatal("demand block at the limit was installed")
	}
}

func TestFillPrefetchBelowOneInstallsDemandOnly(t *testing.T) {
	for _, pf := range []int{1, 0, -3} {
		c := New("f", 64*256, 256, 4)
		c.Fill(5, true, pf, 100, nil)
		if !c.Contains(5) || c.Contains(6) || c.Stats().Inserts != 1 {
			t.Errorf("prefetch %d: contains 5/6 = %v/%v, stats %+v", pf, c.Contains(5), c.Contains(6), c.Stats())
		}
	}
}

func TestFillDirtiesOnlyDemandOnWrite(t *testing.T) {
	c := New("f", 64*256, 256, 4)
	c.Fill(0, true, 4, 100, nil)
	if d := c.DirtyBlocks(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("write fill left dirty %v, want [0]", d)
	}
	c = New("f", 64*256, 256, 4)
	c.Fill(0, false, 4, 100, nil)
	if d := c.DirtyBlocks(); len(d) != 0 {
		t.Fatalf("read fill left dirty %v, want none", d)
	}
	if c.Stats().Inserts != 4 {
		t.Fatalf("inserts = %d, want 4", c.Stats().Inserts)
	}
}

func TestFillCallbackSeesInsertsInOrder(t *testing.T) {
	// 2 sets × 2 ways, full: set 0 holds 0 (dirty) and 2, set 1 holds 1
	// (dirty) and 3, each set's older block first in LRU order.
	c := small()
	c.Insert(0, true)
	c.Insert(1, true)
	c.Insert(2, false)
	c.Insert(3, false)
	type call struct {
		i       int
		block   uint64
		ev      Eviction
		evicted bool
	}
	var got []call
	c.Fill(4, false, 3, 100, func(i int, block uint64, ev Eviction, evicted bool) {
		got = append(got, call{i, block, ev, evicted})
	})
	want := []call{
		{0, 4, Eviction{Block: 0, Dirty: true}, true},
		{1, 5, Eviction{Block: 1, Dirty: true}, true},
		{2, 6, Eviction{Block: 2}, true},
	}
	if len(got) != len(want) {
		t.Fatalf("callback calls = %+v, want %+v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("call %d = %+v, want %+v", k, got[k], want[k])
		}
	}
	if c.Stats().Writebacks != 2 {
		t.Fatalf("writebacks = %d, want 2", c.Stats().Writebacks)
	}
}

// TestReplayMatchesHandDriven drives one random probe list through Replay
// and, on a twin cache, through Lookup and Insert by hand, the way the
// controllers filled misses before Fill existed.
func TestReplayMatchesHandDriven(t *testing.T) {
	const prefetch, limit = 4, 190
	src := rng.New(11)
	probes := make([]Probe, 5000)
	for i := range probes {
		probes[i] = Probe{Block: src.Uint64n(200), Write: src.Bool(0.3)}
	}
	replayed := New("r", 16*256, 256, 4)
	replayed.Replay(probes, prefetch, limit)

	hand := New("h", 16*256, 256, 4)
	for _, p := range probes {
		if hand.Lookup(p.Block, p.Write) {
			continue
		}
		for i := 0; i < prefetch; i++ {
			b := p.Block + uint64(i)
			if b >= limit {
				break
			}
			hand.Insert(b, p.Write && i == 0)
		}
	}
	if got, want := replayed.Stats(), hand.Stats(); got != want {
		t.Fatalf("Replay stats %+v, hand-driven %+v", got, want)
	}
	if got, want := replayed.DirtyBlocks(), hand.DirtyBlocks(); !slices.Equal(got, want) {
		t.Fatalf("Replay left dirty blocks %v, hand-driven %v", got, want)
	}
	if st := replayed.Stats(); st.Hits == 0 || st.Writebacks == 0 {
		t.Fatalf("probe list too easy: %+v", st)
	}
}

// TestLookupFillReplayAllocations pins the probe path allocation-free:
// Lookup, Fill with and without a callback (a closure built at the call
// site, as the controllers build theirs), and Replay.
func TestLookupFillReplayAllocations(t *testing.T) {
	c := New("a", 16*256, 256, 4)
	probes := make([]Probe, 256)
	for i := range probes {
		probes[i] = Probe{Block: uint64(i * 7 % 100), Write: i%3 == 0}
	}
	var b, sum uint64
	for _, tc := range []struct {
		name string
		step func()
	}{
		{"Lookup", func() { c.Lookup(b%100, b%2 == 0); b++ }},
		{"Fill", func() { c.Fill(b%100, true, 4, 90, nil); b++ }},
		{"Fill+callback", func() {
			c.Fill(b%100, true, 4, 90, func(i int, block uint64, ev Eviction, evicted bool) {
				if evicted && ev.Dirty {
					sum += block + uint64(i)
				}
			})
			b++
		}},
		{"Replay", func() { c.Replay(probes, 4, 90) }},
	} {
		if avg := testing.AllocsPerRun(200, tc.step); avg != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", tc.name, avg)
		}
	}
}

// TestNewAllocations pins construction at two allocations, the Cache and
// one slice holding every set's ways, whatever the set count: a slice per
// set made building a DeWrite memory cost one malloc per set.
func TestNewAllocations(t *testing.T) {
	for _, sets := range []int{1, 64, 1024} {
		if avg := testing.AllocsPerRun(20, func() { New("a", sets*8*256, 256, 8) }); avg != 2 {
			t.Errorf("New with %d sets: %.0f allocs, want 2", sets, avg)
		}
	}
}

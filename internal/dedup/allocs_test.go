package dedup

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"dewrite/internal/rng"
)

// TestTablesAllocationsSteadyState pins the tables' write path at zero
// steady-state allocations: the address-indexed tables are dense slices that
// stop growing once every line has been touched, the free list is threaded
// through them, the fingerprint index's slot array stops doubling once it
// holds every live fingerprint at load one half, and a chain that grows
// past one location takes the array of an emptied chain from the slab
// instead of a fresh one.
func TestTablesAllocationsSteadyState(t *testing.T) {
	const lines = 512
	tb := NewTables(lines, 8)
	src := rng.New(5)
	step := func() {
		logical := src.Uint64n(lines)
		// Mostly fresh fingerprints, as unique data has; a few recurring
		// ones give duplicates and multi-entry chains.
		h := uint32(src.Uint64())
		if src.Bool(0.3) {
			h = uint32(src.Intn(16))
			for _, cand := range tb.Candidates(h) {
				if tb.Acceptable(cand) {
					tb.MapDuplicate(logical, cand)
					return
				}
			}
		}
		tb.PlaceUnique(logical, h)
	}
	for i := 0; i < 100000; i++ {
		step()
	}
	const n = 200000
	counted := mallocs(func() {
		for i := 0; i < n; i++ {
			step()
		}
	})
	if counted != 0 {
		t.Errorf("a window of %d steady-state operations made %d mallocs, want 0", n, counted)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverwritesAllocateNothing: a line overwritten with unique data again
// and again, or alternately with a duplicate and unique data, frees its own
// slot and claims it back each time. The free list ends each pair empty,
// so the write path allocates nothing; it used to keep every freed slot as
// a stale entry, one per pair.
func TestOverwritesAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		pair func(tb *Tables, i int)
	}{
		{"unique overwrites", 100000, func(tb *Tables, i int) {
			tb.PlaceUnique(3, uint32(i)+16)
		}},
		{"duplicate/unique alternations", 50000, func(tb *Tables, i int) {
			tb.MapDuplicate(3, 0)
			tb.PlaceUnique(3, uint32(i)+16)
		}},
	} {
		tb := NewTables(64, 255)
		tb.PlaceUnique(0, 1) // the duplicates' target
		tb.PlaceUnique(3, 2)
		// The passes repeat, so an allocation on the path recurs in every
		// window, while the runtime's own background work can allocate
		// once in a window: the pin takes the fewer of two windows' counts.
		window := func() uint64 {
			return mallocs(func() {
				for i := 0; i < tc.n; i++ {
					tc.pair(tb, i)
				}
			})
		}
		if counted := min(window(), window()); counted != 0 || tb.head != 0 {
			t.Errorf("%s: a window of %d made %d mallocs and left free-list head %d, want 0 and empty",
				tc.name, tc.n, counted, tb.head)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestLocationSize: the free-list links and flag fill the padding of a
// location, so the per-location table costs no more than it did.
func TestLocationSize(t *testing.T) {
	if n := unsafe.Sizeof(location{}); n != 24 {
		t.Fatalf("location is %d bytes, want 24", n)
	}
}

// TestCheckInvariantsCatchesRepeatedChainEntry: a fingerprint chain listing
// one live location twice is caught directly, by the chain entries
// outnumbering the live locations.
func TestCheckInvariantsCatchesRepeatedChainEntry(t *testing.T) {
	tb := NewTables(64, 8)
	tb.PlaceUnique(0, 0xabc)
	tb.PlaceUnique(1, 0xabc)
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tb.hash.add(0xabc, 0)
	if err := tb.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "3 entries for 2 live") {
		t.Fatalf("repeated chain entry: err = %v", err)
	}
}

// TestCheckInvariantsCatchesBrokenFreeList: each way the free list's links
// or flags can disagree with the tables is caught, a cycle included,
// without walking forever.
func TestCheckInvariantsCatchesBrokenFreeList(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(tb *Tables)
		want    string
	}{
		{"newer link", func(tb *Tables) { tb.loc[1].prev = 1 }, "links location 0x1 inconsistently"},
		{"cycle", func(tb *Tables) { tb.loc[0].next = 3 }, "links location 0x2 inconsistently"},
		{"retired", func(tb *Tables) { tb.loc[0].retired = true }, "holds live or retired location 0x0"},
		{"flag", func(tb *Tables) { tb.loc[5].listed = true }, "4 locations flagged listed for 3 on the free list"},
		{"stray link", func(tb *Tables) { tb.loc[5].next = 1 }, "unlisted location 0x5 has free-list links"},
		{"dropped", func(tb *Tables) { tb.unlink(1) }, "free location 0x1 below the fresh cursor is not listed"},
	} {
		// Lines 20-22, their own slots retired, take locations 0-2 from the
		// cursor and then free them: the list holds 2, 1, 0 from its head.
		tb := NewTables(64, 8)
		tb.PlaceUnique(30, 1)
		for logical := uint64(20); logical < 23; logical++ {
			tb.Retire(logical)
			tb.PlaceUnique(logical, uint32(logical))
		}
		for logical := uint64(20); logical < 23; logical++ {
			tb.MapDuplicate(logical, 30)
		}
		if err := tb.CheckInvariants(); err != nil || tb.head != 3 {
			t.Fatalf("%s: before corrupting: head %d, %v", tc.name, tb.head, err)
		}
		tc.corrupt(tb)
		if err := tb.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestReusedChainKeepsCandidateOrder: a fingerprint emptied and then reused
// starts a fresh chain, and a chain of two or more reuses an emptied array
// of the slab, which starts empty, so candidates come back in placement
// order exactly as with a fresh chain.
func TestReusedChainKeepsCandidateOrder(t *testing.T) {
	tb := NewTables(64, 8)
	tb.PlaceUnique(1, 0xa)
	tb.PlaceUnique(2, 0xa)
	tb.PlaceUnique(1, 0xb) // chain 0xa keeps location 2
	tb.PlaceUnique(2, 0xb) // chain 0xa empties
	for _, logical := range []uint64{9, 4, 7} {
		tb.PlaceUnique(logical, 0xc)
	}
	if got := tb.Candidates(0xc); len(got) != 3 || got[0] != 9 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("candidates = %v, want [9 4 7]", got)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mallocs returns the heap allocations f makes, counted exactly: unlike
// testing.AllocsPerRun, which truncates its average to an integer and so
// cannot fail a bound below one allocation per call. A collection finished
// first keeps one that an earlier test left running out of the count.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

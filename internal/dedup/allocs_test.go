package dedup

import (
	"runtime"
	"strings"
	"testing"

	"dewrite/internal/rng"
)

// TestTablesAllocationsSteadyState pins the tables' write path at zero
// steady-state allocations: the address-indexed tables are dense slices that
// stop growing once every line has been touched, the fingerprint index's
// slot array stops doubling once it holds every live fingerprint at load
// one half, and a chain that grows past one location takes the array of an
// emptied chain from the slab instead of a fresh one.
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
	if avg := float64(counted) / n; avg > 0.001 {
		t.Errorf("steady-state operation: %.4f mallocs/op, want <= 0.001", avg)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
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
// cannot fail a bound below one allocation per call.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

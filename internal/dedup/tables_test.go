package dedup

import (
	"testing"
	"testing/quick"

	"dewrite/internal/rng"
)

func TestNeverWrittenHasNoLocation(t *testing.T) {
	tb := NewTables(64, 255)
	if _, ok := tb.LocationOf(5); ok {
		t.Fatal("unwritten line reported a location")
	}
	if tb.IsLive(5) {
		t.Fatal("unwritten location reported live")
	}
}

func TestPlaceUniquePrefersOwnSlot(t *testing.T) {
	tb := NewTables(64, 255)
	chosen, _, didFree := tb.PlaceUnique(7, 0xabc)
	if chosen != 7 || didFree {
		t.Fatalf("chosen = %d, didFree = %v", chosen, didFree)
	}
	if loc, ok := tb.LocationOf(7); !ok || loc != 7 {
		t.Fatal("mapping not recorded")
	}
	if !tb.IsLive(7) || tb.Refs(7) != 1 {
		t.Fatal("location state wrong")
	}
	if h, ok := tb.HashOf(7); !ok || h != 0xabc {
		t.Fatal("hash not recorded")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapDuplicateIncreasesRefs(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(1, 0x11)
	freed, didFree := tb.MapDuplicate(2, 1)
	if didFree {
		t.Fatalf("unexpected free of %d", freed)
	}
	if tb.Refs(1) != 2 {
		t.Fatalf("refs = %d, want 2", tb.Refs(1))
	}
	if loc, _ := tb.LocationOf(2); loc != 1 {
		t.Fatal("logical 2 not mapped to 1")
	}
	if !tb.IsDeduplicated(2) || !tb.IsDeduplicated(1) {
		t.Fatal("IsDeduplicated wrong for shared location")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfDuplicateIsNoop(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(3, 0x33)
	if !tb.IsSelfDuplicate(3, 3) {
		t.Fatal("self duplicate not detected")
	}
	tb.MapDuplicate(3, 3)
	if tb.Refs(3) != 1 {
		t.Fatalf("self-dup changed refs to %d", tb.Refs(3))
	}
	st := tb.Snapshot()
	if st.SelfDups != 1 || st.Duplicates != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
}

func TestRewriteReleasesOldMapping(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(1, 0x11)
	tb.MapDuplicate(2, 1) // refs(1) = 2
	// Rewrite logical 2 with unique data: location 2 is free, so it goes home.
	chosen, _, didFree := tb.PlaceUnique(2, 0x22)
	if chosen != 2 || didFree {
		t.Fatalf("chosen = %d didFree = %v", chosen, didFree)
	}
	if tb.Refs(1) != 1 {
		t.Fatalf("refs(1) = %d after release, want 1", tb.Refs(1))
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLastReleaseFreesLocationAndCleansHash(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(1, 0x11)
	chosen, freed, didFree := tb.PlaceUnique(1, 0x12) // rewrite: old data at 1 freed
	if !didFree && chosen != 1 {
		// The freed slot is also the chosen slot, so didFree is suppressed.
		t.Fatalf("expected slot reuse, chosen=%d freed=%d didFree=%v", chosen, freed, didFree)
	}
	if len(tb.Candidates(0x11)) != 0 {
		t.Fatal("stale hash 0x11 not cleaned")
	}
	if len(tb.Candidates(0x12)) != 1 {
		t.Fatal("new hash missing")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDisplacementWhenOwnSlotOccupied(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(1, 0x11)
	tb.MapDuplicate(2, 1)
	// Logical 1 rewrites while its old data is still referenced by 2:
	// the old data at location 1 cannot be overwritten.
	chosen, _, didFree := tb.PlaceUnique(1, 0x99)
	if chosen == 1 {
		t.Fatal("overwrote a referenced location")
	}
	if didFree {
		t.Fatal("nothing should have been freed")
	}
	if tb.Refs(1) != 1 { // now only logical 2 references it
		t.Fatalf("refs(1) = %d", tb.Refs(1))
	}
	if tb.Snapshot().Displaced != 1 {
		t.Fatal("displacement not counted")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreedLocationReused(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(1, 0x11)
	tb.MapDuplicate(2, 1)
	tb.PlaceUnique(1, 0x99) // displaced to some location F
	f, _ := tb.LocationOf(1)
	// Rewrite 2 as unique: location 1 (old shared data) becomes free; 2's own
	// slot (2) is free, so it is chosen, and location 1 is freed.
	chosen, freed, didFree := tb.PlaceUnique(2, 0x88)
	if chosen != 2 {
		t.Fatalf("chosen = %d, want 2", chosen)
	}
	if !didFree || freed != 1 {
		t.Fatalf("freed = %d/%v, want location 1", freed, didFree)
	}
	// Now displace someone into the freed location: logical 5 writes unique
	// while its slot is... free, so force allocation by occupying slot 5.
	tb.MapDuplicate(5, f) // 5 → F
	tb.PlaceUnique(3, 0x77)
	_ = tb
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSaturation(t *testing.T) {
	tb := NewTables(64, 3)
	tb.PlaceUnique(0, 0xaa)
	tb.MapDuplicate(1, 0)
	tb.MapDuplicate(2, 0)
	if tb.Acceptable(0) {
		t.Fatal("location at maxRef should not be acceptable")
	}
	tb.NoteSaturatedSkip()
	if tb.Snapshot().Saturated != 1 {
		t.Fatal("saturated counter wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MapDuplicate past saturation should panic")
		}
	}()
	tb.MapDuplicate(3, 0)
}

func TestMapDuplicateToFreePanics(t *testing.T) {
	tb := NewTables(64, 255)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.MapDuplicate(1, 2)
}

func TestCandidatesMultipleCollisions(t *testing.T) {
	tb := NewTables(64, 255)
	// Two different contents with the same fingerprint (hash collision).
	tb.PlaceUnique(1, 0x5555)
	tb.PlaceUnique(2, 0x5555)
	if got := len(tb.Candidates(0x5555)); got != 2 {
		t.Fatalf("candidates = %d, want 2", got)
	}
	tb.NoteCollision()
	if tb.Snapshot().Collisions != 1 {
		t.Fatal("collision counter wrong")
	}
}

func TestObserveRefsHistogram(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(0, 1)
	tb.MapDuplicate(1, 0)
	tb.MapDuplicate(2, 0)
	tb.PlaceUnique(9, 2)
	tb.ObserveRefs()
	h := tb.RefHistogram()
	if h.Count() != 2 {
		t.Fatalf("histogram count = %d, want 2 live locations", h.Count())
	}
	if h.FractionAtMost(1) != 0.5 || h.FractionAtMost(2) != 0.5 || h.Max() != 3 {
		t.Fatal("histogram buckets wrong: want one location with 1 reference and one with 3")
	}
}

func TestRandomOpsPreserveInvariants(t *testing.T) {
	const lines = 128
	tb := NewTables(lines, 4)
	src := rng.New(99)
	hashes := []uint32{0x1, 0x2, 0x3, 0x4} // few hashes → many dedup chances
	for i := 0; i < 5000; i++ {
		logical := src.Uint64n(lines)
		h := hashes[src.Intn(len(hashes))]
		// Emulate the controller's decision: find an acceptable candidate
		// with this hash; treat match as duplicate, otherwise place unique.
		var target uint64
		found := false
		for _, cand := range tb.Candidates(h) {
			if tb.Acceptable(cand) {
				target = cand
				found = true
				break
			}
		}
		if found && src.Bool(0.8) {
			tb.MapDuplicate(logical, target)
		} else {
			tb.PlaceUnique(logical, h)
		}
		if i%500 == 0 {
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLocationResolutionProperty(t *testing.T) {
	// Whatever sequence of operations runs, a written logical line always
	// resolves to a live location whose hash equals the last hash written.
	const lines = 64
	tb := NewTables(lines, 8)
	src := rng.New(7)
	lastHash := make(map[uint64]uint32)
	f := func(logicalRaw uint16, h uint32, dup bool) bool {
		logical := uint64(logicalRaw) % lines
		h = h % 16 // dense hash space
		placed := false
		if dup {
			for _, cand := range tb.Candidates(h) {
				if tb.Acceptable(cand) {
					tb.MapDuplicate(logical, cand)
					placed = true
					break
				}
			}
		}
		if !placed {
			tb.PlaceUnique(logical, h)
		}
		lastHash[logical] = h
		loc, ok := tb.LocationOf(logical)
		if !ok || !tb.IsLive(loc) {
			return false
		}
		got, _ := tb.HashOf(loc)
		_ = src
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// And every other previously written logical still resolves to its hash.
	for logical, h := range lastHash {
		loc, ok := tb.LocationOf(logical)
		if !ok {
			t.Fatalf("logical %d lost its mapping", logical)
		}
		if got, _ := tb.HashOf(loc); got != h {
			t.Fatalf("logical %d hash = %#x, want %#x", logical, got, h)
		}
	}
}

func TestSnapshotCounts(t *testing.T) {
	tb := NewTables(64, 255)
	tb.PlaceUnique(0, 1)
	tb.MapDuplicate(1, 0)
	tb.PlaceUnique(2, 2)
	st := tb.Snapshot()
	if st.Uniques != 2 || st.Duplicates != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
	if st.LiveLines != 2 {
		t.Fatalf("live = %d", st.LiveLines)
	}
	if st.MappedAway != 1 {
		t.Fatalf("mappedAway = %d", st.MappedAway)
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewTables(0, 255) },
		func() { NewTables(10, 0) },
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

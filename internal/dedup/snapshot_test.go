package dedup

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"dewrite/internal/rng"
)

// populated builds tables with a random but valid operation history.
func populated(t *testing.T, seed uint64, lines uint64) *Tables {
	t.Helper()
	tb := NewTables(lines, 16)
	src := rng.New(seed)
	hashes := []uint32{1, 2, 3, 4, 5}
	for i := 0; i < 2000; i++ {
		logical := src.Uint64n(lines)
		h := hashes[src.Intn(len(hashes))]
		placed := false
		if src.Bool(0.7) {
			for _, cand := range tb.Candidates(h) {
				if tb.Acceptable(cand) {
					tb.MapDuplicate(logical, cand)
					placed = true
					break
				}
			}
		}
		if !placed {
			chosen, _, _ := tb.PlaceUnique(logical, h)
			if src.Bool(0.2) {
				tb.SetZeroFlag(chosen)
			}
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSnapshotRoundTrip(t *testing.T) {
	orig := populated(t, 7, 128)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTables(&buf, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Behavioural equality: every mapping, liveness, hash, refs and zero
	// flag agree.
	for logical := uint64(0); logical < 128; logical++ {
		lo, oko := orig.LocationOf(logical)
		lg, okg := got.LocationOf(logical)
		if oko != okg || lo != lg {
			t.Fatalf("mapping of %d differs: %v/%v vs %v/%v", logical, lo, oko, lg, okg)
		}
	}
	for loc := uint64(0); loc < 128; loc++ {
		if orig.IsLive(loc) != got.IsLive(loc) {
			t.Fatalf("liveness of %d differs", loc)
		}
		if orig.Refs(loc) != got.Refs(loc) {
			t.Fatalf("refs of %d differ", loc)
		}
		ho, _ := orig.HashOf(loc)
		hg, _ := got.HashOf(loc)
		if ho != hg {
			t.Fatalf("hash of %d differs", loc)
		}
		if orig.IsZeroLocation(loc) != got.IsZeroLocation(loc) {
			t.Fatalf("zero flag of %d differs", loc)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	tb := populated(t, 9, 64)
	var a, b bytes.Buffer
	tb.WriteTo(&a)
	tb.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot serialization is not deterministic")
	}
}

func TestRestoredTablesKeepWorking(t *testing.T) {
	orig := populated(t, 11, 64)
	var buf bytes.Buffer
	orig.WriteTo(&buf)
	got, err := ReadTables(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Continue operating on the restored tables: invariants must hold.
	src := rng.New(13)
	for i := 0; i < 1000; i++ {
		logical := src.Uint64n(64)
		h := uint32(src.Uint64n(5) + 1)
		placed := false
		for _, cand := range got.Candidates(h) {
			if got.Acceptable(cand) {
				got.MapDuplicate(logical, cand)
				placed = true
				break
			}
		}
		if !placed {
			got.PlaceUnique(logical, h)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad magic": "NOTASNAP" + strings.Repeat("\x00", 64),
		"truncated": snapshotMagicFor(t),
	}
	for name, in := range cases {
		if _, err := ReadTables(strings.NewReader(in), 32); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func snapshotMagicFor(t *testing.T) string {
	t.Helper()
	return "DWDT2\n" // header only, counts missing
}

func TestSnapshotRejectsCorruptCounts(t *testing.T) {
	tb := populated(t, 17, 32)
	var buf bytes.Buffer
	tb.WriteTo(&buf)
	raw := buf.Bytes()
	// Corrupt the mapping count (bytes 6+24 .. 6+32 hold it) to a huge value.
	copy(raw[len("DWDT2\n")+24:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if _, err := ReadTables(bytes.NewReader(raw), 32); err == nil {
		t.Fatal("expected error on corrupt count")
	}
}

// TestReadTablesRejectsOversizedSnapshot: the tables are dense, so every
// address a snapshot holds sizes an allocation. A snapshot declaring more
// lines than the caller's must be rejected before anything grows.
func TestReadTablesRejectsOversizedSnapshot(t *testing.T) {
	var err error
	allocated := allocatedBytes(func() {
		_, err = ReadTables(bytes.NewReader(hugeSnapshot), fuzzLines)
	})
	if err == nil {
		t.Fatal("snapshot declaring 2^32 lines accepted")
	}
	if allocated >= 1<<20 {
		t.Fatalf("rejecting a %d-byte snapshot allocated %d bytes", len(hugeSnapshot), allocated)
	}
	// The same snapshot against tables of another size names both counts.
	if _, err := ReadTables(bytes.NewReader(hugeSnapshot), 1<<20); err == nil ||
		!strings.Contains(err.Error(), "4294967296 lines, want 1048576") {
		t.Fatalf("line-count mismatch error = %v", err)
	}
}

// TestReadTablesRejectsDuplicateLocation: a snapshot listing one live
// location twice used to load, leaving its fingerprint chain with two
// entries for one location; the first rewrite of that location then left a
// stale entry behind.
func TestReadTablesRejectsDuplicateLocation(t *testing.T) {
	_, err := ReadTables(bytes.NewReader(duplicateLocationSnapshot), fuzzLines)
	if err == nil || !strings.Contains(err.Error(), "location 0x0 twice") {
		t.Fatalf("duplicate location: err = %v", err)
	}
	// Without the repeat the same snapshot loads.
	single := snapshotBytes(fuzzLines, 8, 1, 1, 0, 0, 1, 0, 0xabc, 1, 0, 0, 0)
	if _, err := ReadTables(bytes.NewReader(single), fuzzLines); err != nil {
		t.Fatalf("single location rejected: %v", err)
	}
	// A mapping listed twice is rejected the same way.
	twice := snapshotBytes(fuzzLines, 8, 1, 2, 0, 0, 0, 0, 1, 0, 0xabc, 1, 0, 0)
	if _, err := ReadTables(bytes.NewReader(twice), fuzzLines); err == nil ||
		!strings.Contains(err.Error(), "logical 0x0 twice") {
		t.Fatalf("duplicate mapping: err = %v", err)
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadTablesChecksFreeListAndRetirements: a snapshot's free list and
// retired locations must describe what placement relies on. Every snapshot
// here maps logical 2 to live location 2 under a fresh cursor of 2, so
// locations 0 and 1 must each be on the free list or retired.
func TestReadTablesChecksFreeListAndRetirements(t *testing.T) {
	snap := func(cursor uint64, free, retired []uint64) []byte {
		words := []uint64{fuzzLines, 8, cursor, 1, 2, 2, 1, 2, 0xabc, 1, 0, uint64(len(free))}
		words = append(words, free...)
		words = append(words, uint64(len(retired)))
		return snapshotBytes(append(words, retired...)...)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want string // "" when the snapshot loads
	}{
		{"free", snap(2, []uint64{0, 1}, nil), ""},
		{"free and retired", snap(2, []uint64{0}, []uint64{1}), ""},
		{"live on the free list", snap(2, []uint64{0, 1, 2}, nil), "frees live or repeated location 0x2"},
		{"repeated on the free list", snap(2, []uint64{0, 1, 1}, nil), "frees live or repeated location 0x1"},
		{"free list out of range", snap(2, []uint64{0, 1, fuzzLines}, nil), "freed location 0x20 out of range"},
		{"retired and free", snap(2, []uint64{0, 1}, []uint64{1}), "retires live, free-listed or repeated location 0x1"},
		{"retired twice", snap(2, []uint64{0}, []uint64{1, 1}), "retires live, free-listed or repeated location 0x1"},
		{"free below the cursor, unlisted", snap(2, []uint64{0}, nil), "free location 0x1 below the fresh cursor is not listed"},
		{"cursor past every touched location", snap(4, []uint64{0, 1}, nil), "free location 0x3 below the fresh cursor is not listed"},
		{"cursor beyond the lines", snap(fuzzLines+1, []uint64{0, 1}, nil), "free location 0x3 below the fresh cursor is not listed"},
	} {
		_, err := ReadTables(bytes.NewReader(tc.in), fuzzLines)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

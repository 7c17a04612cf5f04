package dedup

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzLines is the line count FuzzReadTables' snapshots are read against.
const fuzzLines = 32

// snapshotBytes assembles a DWDT2 snapshot from raw 64-bit words: the
// header (lines, maxRef, freshScan) and then the four counted sections.
func snapshotBytes(words ...uint64) []byte {
	out := []byte(snapshotMagic)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// FuzzReadTables checks the snapshot parser never panics and that anything
// it accepts satisfies the table invariants and round-trips.
func FuzzReadTables(f *testing.F) {
	// Seed corpus: a valid snapshot, a truncation, garbage.
	tb := NewTables(fuzzLines, 8)
	tb.PlaceUnique(1, 0x11)
	tb.MapDuplicate(2, 1)
	tb.PlaceUnique(3, 0x22)
	tb.PlaceUnique(1, 0x33) // rewrite: frees nothing (still referenced by 2)
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-9])
	f.Add([]byte("DWDT2\nxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add([]byte{})
	// 70 bytes declaring 2^32 lines and one mapping at address 2^32-1: a
	// loader sizing its dense tables from the snapshot would allocate 32 GiB.
	f.Add(hugeSnapshot)
	// Location 0 listed twice under one fingerprint.
	f.Add(duplicateLocationSnapshot)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTables(bytes.NewReader(data), fuzzLines)
		if err != nil {
			return
		}
		// ReadTables validates invariants itself; double-check and round-trip.
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates invariants: %v", err)
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted snapshot failed to serialize: %v", err)
		}
		if _, err := ReadTables(bytes.NewReader(out.Bytes()), fuzzLines); err != nil {
			t.Fatalf("re-serialized snapshot rejected: %v", err)
		}
	})
}

var (
	// lines 2^32, maxRef 8, freshScan 0; one mapping 2^32-1 → 2^32-1; no
	// locations, no free list.
	hugeSnapshot = snapshotBytes(1<<32, 8, 0, 1, 1<<32-1, 1<<32-1, 0, 0)
	// lines 32, maxRef 8, freshScan 1; mapping 0 → 0; location 0 (hash
	// 0xabc, refs 1, not zero) listed twice; no free list.
	duplicateLocationSnapshot = snapshotBytes(fuzzLines, 8, 1, 1, 0, 0,
		2, 0, 0xabc, 1, 0, 0, 0xabc, 1, 0, 0)
)

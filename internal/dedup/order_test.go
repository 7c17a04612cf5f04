package dedup

import (
	"sort"
	"testing"
)

// TestMappingsSortedAndStable locks the iteration-order contract crash
// recovery depends on: Mappings must return the mappings sorted by logical
// address and identical across calls, whatever order the lines were written
// in.
func TestMappingsSortedAndStable(t *testing.T) {
	const lines = 64
	tb := NewTables(lines, 4)
	// Populate in a scattered order: uniques, duplicates, and an overwrite.
	for _, logical := range []uint64{40, 3, 57, 12, 29, 0, 63, 21} {
		tb.PlaceUnique(logical, uint32(logical)*2654435761)
	}
	if _, ok := tb.LocationOf(3); !ok {
		t.Fatal("setup: logical 3 unmapped")
	}
	loc3, _ := tb.LocationOf(3)
	tb.MapDuplicate(7, loc3)
	tb.MapDuplicate(45, loc3)
	tb.PlaceUnique(12, 0xdead) // overwrite: releases and re-places

	first := tb.Mappings()
	if len(first) == 0 {
		t.Fatal("no mappings recovered")
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i].Logical < first[j].Logical }) {
		t.Fatalf("Mappings not sorted by logical address: %v", first)
	}
	for trial := 0; trial < 8; trial++ {
		again := tb.Mappings()
		if len(again) != len(first) {
			t.Fatalf("trial %d: length changed: %d vs %d", trial, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("trial %d: entry %d differs: %v vs %v", trial, i, again[i], first[i])
			}
		}
	}
}

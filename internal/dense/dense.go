// Package dense holds the growth rule of the simulator's address-indexed
// tables: the dedup mapping and location tables, the encryption counters,
// and the device's contents and wear. Each is a slice indexed by line
// address whose zero value means "absent", so a table need not be sized when
// its owner is built: it grows on first touch, and never past its owner's
// line count.
package dense

import "fmt"

// Grow returns s, extended with zero values when needed so that s[i] is
// valid. The length at least doubles on each extension, so filling an
// address range reallocates O(log n) times, but it never exceeds limit, the
// owner's line count; i beyond limit is a bug in the caller.
func Grow[T any](s []T, i, limit uint64) []T {
	if i < uint64(len(s)) {
		return s
	}
	if i >= limit {
		panic(fmt.Sprintf("dense: index %#x beyond %d lines", i, limit))
	}
	n := min(max(i+1, 2*uint64(len(s))), limit)
	return append(s, make([]T, n-uint64(len(s)))...)
}

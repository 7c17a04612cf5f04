package hashes_test

import (
	"fmt"

	"dewrite/internal/hashes"
)

// Example shows the fingerprint DeWrite's dedup logic computes per line.
func Example() {
	line := []byte("256-byte cache line contents...")
	fmt.Printf("CRC-32: %08x\n", hashes.CRC32(line))
	// Output:
	// CRC-32: b6813053
}

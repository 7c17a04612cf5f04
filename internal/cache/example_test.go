package cache_test

import (
	"fmt"

	"dewrite/internal/cache"
	"dewrite/internal/config"
)

// Example filters a small access stream through the four-level hierarchy and
// reports which accesses reached memory.
func Example() {
	h := cache.NewHierarchy(config.DefaultHierarchy())

	fills := 0
	// Two passes over a tiny working set: the first pass cold-misses, the
	// second hits entirely on chip.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 8; addr++ {
			if h.Access(addr, pass == 0).MemFill {
				fills++
			}
		}
	}
	fmt.Printf("16 accesses, %d memory fills (cold misses only)\n", fills)
	// Output:
	// 16 accesses, 8 memory fills (cold misses only)
}

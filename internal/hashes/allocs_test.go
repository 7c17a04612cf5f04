package hashes

import "testing"

// The fingerprint runs on every modeled write, so it must not touch the heap.
// This test pins that.
func TestDigestAllocations(t *testing.T) {
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i * 37)
	}
	if avg := testing.AllocsPerRun(200, func() { CRC32(line) }); avg != 0 {
		t.Errorf("CRC32: %.1f allocs/op, want 0", avg)
	}
}

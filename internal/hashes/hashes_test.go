package hashes

import (
	"bytes"
	"hash/crc32"
	"testing"
	"testing/quick"

	"dewrite/internal/rng"
)

// The fingerprint is persisted in snapshots and routes dewrite-serve keys to
// shards, so its values are pinned, not just its properties.
func TestCRC32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000000},
		{"a", 0xe8b7be43},
		{"abc", 0x352441c2},
		{"123456789", 0xcbf43926},
		{"The quick brown fox jumps over the lazy dog", 0x414fa339},
	}
	for _, c := range cases {
		if got := CRC32([]byte(c.in)); got != c.want {
			t.Errorf("CRC32(%q) = %#08x, want %#08x", c.in, got, c.want)
		}
	}
}

// The fingerprint must stay IEEE CRC-32 on every length: clients that route
// keys to dewrite-serve shards compute it with hash/crc32.
func TestCRC32MatchesStdlib(t *testing.T) {
	src := rng.New(1)
	f := func(n uint16) bool {
		b := make([]byte, int(n)%1024)
		src.Fill(b)
		return CRC32(b) == crc32.ChecksumIEEE(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRC32LineSized(t *testing.T) {
	// The dedup logic always hashes 256 B lines: pin the zero line, the
	// all-ones line and one random line.
	random := make([]byte, 256)
	rng.New(2).Fill(random)
	cases := []struct {
		name string
		line []byte
		want uint32
	}{
		{"zero", make([]byte, 256), 0x0d968558},
		{"ones", bytes.Repeat([]byte{0xff}, 256), 0xfea8a821},
		{"random", random, 0x68201482},
	}
	for _, c := range cases {
		if got := CRC32(c.line); got != c.want {
			t.Errorf("%s line: CRC32 = %#08x, want %#08x", c.name, got, c.want)
		}
	}
}

func TestCRC32SensitiveToSingleBit(t *testing.T) {
	line := make([]byte, 256)
	base := CRC32(line)
	for i := 0; i < 256; i++ {
		line[i] ^= 1
		if CRC32(line) == base {
			t.Fatalf("flipping byte %d did not change CRC", i)
		}
		line[i] ^= 1
	}
}

func BenchmarkCRC32Line(b *testing.B) {
	line := make([]byte, 256)
	rng.New(5).Fill(line)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		CRC32(line)
	}
}

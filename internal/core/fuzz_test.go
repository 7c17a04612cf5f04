package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/units"
)

// FuzzRestore checks the checkpoint parser against truncated and corrupted
// input: it must return an error — never panic, never size an allocation from
// an unvalidated length prefix — and anything it accepts must satisfy the
// dedup-table invariants.
func FuzzRestore(f *testing.F) {
	valid, opts := fuzzCheckpoint(f)

	f.Add(valid)
	for _, cut := range []int{1, 6, 14, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	// A header claiming an enormous line count must be rejected before any
	// sizing decision.
	huge := append([]byte("DWCP1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	f.Add(huge)
	f.Add([]byte("DWCP1\n"))
	f.Add([]byte{})
	// Snapshot-layer formats (PR-9): the serving daemon wraps checkpoints in
	// directory-generation snapshots, so a confused or corrupted recovery
	// path can hand Restore a manifest, a serve shard payload, or a
	// checkpoint wearing a skewed version magic. All must error cleanly.
	f.Add([]byte(`{"schema":"dewrite/snapshot/v1","generation":1,"files":[{"name":"shard-0","size":64,"crc32":1}],"meta":{"shards":"4"}}`))
	f.Add([]byte("DWSV1\n\x00\x00\x00\x02{}"))
	f.Add(append([]byte("DWSV1\n\x00\x00\x00\x02{}"), valid...))
	if len(valid) > 6 {
		f.Add(append([]byte("DWCP2\n"), valid[6:]...))
	}
	// Counter sections naming an address at or far past DataLines: the
	// counter table is dense, so accepting one would size it by the address.
	f.Add(withCounterAddr(valid, opts.DataLines))
	f.Add(withCounterAddr(valid, 1<<40))

	f.Fuzz(func(t *testing.T, blob []byte) {
		got, err := Restore(bytes.NewReader(blob), opts)
		if err != nil {
			return
		}
		if err := got.Tables().CheckInvariants(); err != nil {
			t.Fatalf("accepted checkpoint violates dedup invariants: %v", err)
		}
		// An accepted checkpoint must round-trip.
		var out bytes.Buffer
		if err := got.SaveState(0, &out); err != nil {
			t.Fatalf("accepted checkpoint failed to re-save: %v", err)
		}
		if _, err := Restore(bytes.NewReader(out.Bytes()), opts); err != nil {
			t.Fatalf("re-saved checkpoint rejected: %v", err)
		}
	})
}

// fuzzCheckpoint returns a valid checkpoint of a 64-line controller after a
// few writes, and the options that restore it.
func fuzzCheckpoint(tb testing.TB) ([]byte, Options) {
	tb.Helper()
	const lines = 64
	opts := Options{DataLines: lines, Config: config.Default()}
	c := New(opts)
	var now units.Time
	var data [config.LineSize]byte
	for i := uint64(0); i < 16; i++ {
		for j := range data {
			data[j] = byte(i * 3)
		}
		now = c.Write(now, i%lines, data[:])
	}
	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), opts
}

// withCounterAddr returns a copy of a checkpoint whose first saved counter
// names addr. The counter section follows the magic and the 8-byte line
// count: an 8-byte count, then address/counter pairs.
func withCounterAddr(valid []byte, addr uint64) []byte {
	out := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(out[len(checkpointMagic)+16:], addr)
	return out
}

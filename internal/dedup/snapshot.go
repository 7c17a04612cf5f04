package dedup

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dewrite/internal/dense"
)

// Snapshotting: the tables can be serialized and restored, the software
// equivalent of the recovery walk a real controller performs over the
// in-NVM metadata region after a clean shutdown (Section V: the metadata is
// persistent; only the cached copies need flushing). A restored Tables is
// behaviourally identical to the original: it holds the same free list in
// the same order, every fingerprint chain in candidate order and the same
// retired locations, so it places and deduplicates every later write as
// the original would.

const snapshotMagic = "DWDT2\n"

// WriteTo serializes the tables in a compact, deterministic binary format:
// the header (lines, maxRef, fresh cursor), then four counted sections of
// 64-bit little-endian words: the mappings, the live locations, the free
// list and the retired locations.
func (t *Tables) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	// A bufio.Writer keeps its first error and writes nothing after it, so
	// the error is read once, from Flush.
	c, _ := bw.WriteString(snapshotMagic)
	n += int64(c)
	var b8 [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		c, _ := bw.Write(b8[:])
		n += int64(c)
	}
	put(t.lines)
	put(uint64(t.maxRef))
	put(t.freshScan)

	// Mappings, in logical address order.
	mappings := t.Mappings()
	put(uint64(len(mappings)))
	for _, m := range mappings {
		put(m.Logical)
		put(m.Location)
	}

	// Live locations (address, hash, refs, zero flag), one fingerprint
	// chain after another and each in candidate order, so the restore,
	// which appends each to its chain, rebuilds every chain as it stands.
	put(t.live)
	for i := range t.hash.slots {
		if t.hash.slots[i].n == 0 {
			continue
		}
		for _, a := range t.hash.at(uint64(i)) {
			l := &t.loc[a]
			z := uint64(0)
			if l.isZero {
				z = 1
			}
			put(a)
			put(uint64(l.hash))
			put(uint64(l.refs))
			put(z)
		}
	}

	// The free list, oldest first, so the restore, which pushes each in
	// turn, rebuilds it in the same order.
	var nFree uint64
	var oldest uint32
	for a := t.head; a != 0; a = t.loc[a-1].next {
		nFree, oldest = nFree+1, a
	}
	put(nFree)
	for a := oldest; a != 0; a = t.loc[a-1].prev {
		put(uint64(a - 1))
	}

	// Retired locations, in address order.
	put(t.retired)
	for i := range t.loc {
		if t.loc[i].retired {
			put(uint64(i))
		}
	}
	return n, bw.Flush()
}

// ReadTables deserializes a snapshot written by WriteTo for tables of the
// given number of data lines. The hash index is rebuilt from the live
// locations (the recovery walk), and the result satisfies CheckInvariants.
// The snapshot must cover exactly lines lines: every address it holds sizes
// a dense table, so a header or an address beyond the caller's count is
// rejected before anything grows.
func ReadTables(r io.Reader, lines uint64) (*Tables, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dedup: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("dedup: bad snapshot magic %q", magic)
	}
	var b8 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b8[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}

	saved, err := readU64()
	if err != nil {
		return nil, err
	}
	if saved != lines {
		return nil, fmt.Errorf("dedup: snapshot covers %d lines, want %d", saved, lines)
	}
	maxRef, err := readU64()
	if err != nil {
		return nil, err
	}
	if lines == 0 || lines >= 1<<32 || maxRef == 0 || maxRef > 1<<32 {
		return nil, fmt.Errorf("dedup: corrupt snapshot header (lines=%d maxRef=%d)", lines, maxRef)
	}
	t := NewTables(lines, uint(maxRef))
	if t.freshScan, err = readU64(); err != nil {
		return nil, err
	}

	nMap, err := readU64()
	if err != nil {
		return nil, err
	}
	if nMap > lines {
		return nil, fmt.Errorf("dedup: snapshot claims %d mappings over %d lines", nMap, lines)
	}
	for i := uint64(0); i < nMap; i++ {
		logical, err := readU64()
		if err != nil {
			return nil, err
		}
		locAddr, err := readU64()
		if err != nil {
			return nil, err
		}
		if logical >= lines || locAddr >= lines {
			return nil, fmt.Errorf("dedup: snapshot mapping %#x->%#x out of range", logical, locAddr)
		}
		if _, dup := t.mapping(logical); dup {
			return nil, fmt.Errorf("dedup: snapshot maps logical %#x twice", logical)
		}
		t.setMapping(logical, locAddr)
	}

	nLoc, err := readU64()
	if err != nil {
		return nil, err
	}
	if nLoc > lines {
		return nil, fmt.Errorf("dedup: snapshot claims %d live locations over %d lines", nLoc, lines)
	}
	for i := uint64(0); i < nLoc; i++ {
		addr, err := readU64()
		if err != nil {
			return nil, err
		}
		h, err := readU64()
		if err != nil {
			return nil, err
		}
		refs, err := readU64()
		if err != nil {
			return nil, err
		}
		z, err := readU64()
		if err != nil {
			return nil, err
		}
		if addr >= lines {
			return nil, fmt.Errorf("dedup: snapshot location %#x out of range", addr)
		}
		if h > 1<<32-1 || refs == 0 || refs > lines || z > 1 {
			return nil, fmt.Errorf("dedup: corrupt snapshot location %#x (hash=%#x refs=%d zero=%d)", addr, h, refs, z)
		}
		if t.liveAt(addr) != nil {
			return nil, fmt.Errorf("dedup: snapshot lists location %#x twice", addr)
		}
		t.claim(addr, location{hash: uint32(h), refs: uint(refs), isZero: z == 1})
	}

	nFree, err := readU64()
	if err != nil {
		return nil, err
	}
	if nFree > lines {
		return nil, fmt.Errorf("dedup: snapshot claims %d freed locations", nFree)
	}
	for i := uint64(0); i < nFree; i++ {
		a, err := readU64()
		if err != nil {
			return nil, err
		}
		if a >= lines {
			return nil, fmt.Errorf("dedup: snapshot freed location %#x out of range", a)
		}
		t.loc = dense.Grow(t.loc, a, t.lines)
		if l := &t.loc[a]; l.refs > 0 || l.listed {
			return nil, fmt.Errorf("dedup: snapshot frees live or repeated location %#x", a)
		}
		t.push(a)
	}

	nRetired, err := readU64()
	if err != nil {
		return nil, err
	}
	if nRetired > lines {
		return nil, fmt.Errorf("dedup: snapshot claims %d retired locations", nRetired)
	}
	for i := uint64(0); i < nRetired; i++ {
		a, err := readU64()
		if err != nil {
			return nil, err
		}
		if a >= lines {
			return nil, fmt.Errorf("dedup: snapshot retired location %#x out of range", a)
		}
		t.loc = dense.Grow(t.loc, a, t.lines)
		if l := &t.loc[a]; l.refs > 0 || l.listed || l.retired {
			return nil, fmt.Errorf("dedup: snapshot retires live, free-listed or repeated location %#x", a)
		}
		t.Retire(a)
	}

	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("dedup: snapshot inconsistent: %w", err)
	}
	return t, nil
}

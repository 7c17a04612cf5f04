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
// behaviourally identical to the original.

const snapshotMagic = "DWDT1\n"

// WriteTo serializes the tables in a compact, deterministic binary format.
func (t *Tables) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(bw.WriteString(snapshotMagic)); err != nil {
		return n, err
	}
	var b8 [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b8[:], v)
		return count(bw.Write(b8[:]))
	}
	if err := writeU64(t.lines); err != nil {
		return n, err
	}
	if err := writeU64(uint64(t.maxRef)); err != nil {
		return n, err
	}
	if err := writeU64(t.freshScan); err != nil {
		return n, err
	}

	// Mappings, in logical address order.
	mappings := t.Mappings()
	if err := writeU64(uint64(len(mappings))); err != nil {
		return n, err
	}
	for _, m := range mappings {
		if err := writeU64(m.Logical); err != nil {
			return n, err
		}
		if err := writeU64(m.Location); err != nil {
			return n, err
		}
	}

	// Live locations (hash, refs, zero flag), in address order.
	if err := writeU64(t.live); err != nil {
		return n, err
	}
	for i := range t.loc {
		l := &t.loc[i]
		if l.refs == 0 {
			continue
		}
		if err := writeU64(uint64(i)); err != nil {
			return n, err
		}
		if err := writeU64(uint64(l.hash)); err != nil {
			return n, err
		}
		if err := writeU64(uint64(l.refs)); err != nil {
			return n, err
		}
		z := uint64(0)
		if l.isZero {
			z = 1
		}
		if err := writeU64(z); err != nil {
			return n, err
		}
	}

	// Free list, compacted: the in-memory list keeps stale entries (slots
	// their own logical line re-claimed after an earlier release freed
	// them, and retired locations) that tryAllocate filters lazily; the
	// snapshot stores only the genuinely free, de-duplicated tail.
	var freed []uint64
	var seen []bool
	for _, a := range t.freed {
		seen = dense.Grow(seen, a, t.lines)
		if t.liveAt(a) == nil && !seen[a] {
			freed = append(freed, a)
			seen[a] = true
		}
	}
	if err := writeU64(uint64(len(freed))); err != nil {
		return n, err
	}
	for _, a := range freed {
		if err := writeU64(a); err != nil {
			return n, err
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
	if lines == 0 || lines > 1<<32 || maxRef == 0 || maxRef > 1<<32 {
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
		t.freed = append(t.freed, a)
	}

	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("dedup: snapshot inconsistent: %w", err)
	}
	return t, nil
}

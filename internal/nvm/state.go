package nvm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dewrite/internal/config"
	"dewrite/internal/dense"
)

// Device contents can be saved and restored — the persistence property that
// distinguishes NVM from DRAM. A restore models a power cycle: the stored
// lines and their wear survive; volatile microarchitectural state (bank
// busy times, open rows) and statistics reset.
//
// Two wire formats exist: DWNV1 (lines + contents) and DWNV2, which prefixes
// the contents with the fault layer's non-volatile structures (spare-region
// remap table, per-line ECP usage, stuck-line set) — those live in the array
// too and must survive a power cycle. SaveContents emits V2 only when the
// fault layer is armed, so fault-free checkpoints remain byte-identical to
// earlier versions; LoadContents accepts both.

const (
	stateMagic   = "DWNV1\n"
	stateMagicV2 = "DWNV2\n"
)

// maxSavedLines bounds length prefixes read from untrusted checkpoint bytes
// before any allocation is sized from them.
const maxSavedLines = 1 << 32

// SaveContents serializes every written line (and its wear count) in
// deterministic address order, preceded by the fault-layer structures when
// the fault layer is armed.
func (d *Device) SaveContents(w io.Writer) error {
	bw := bufio.NewWriter(w)
	magic := stateMagic
	if d.faults != nil {
		magic = stateMagicV2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var b8 [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(b8[:], v)
		_, err := bw.Write(b8[:])
		return err
	}
	if err := writeU64(d.geom.Lines()); err != nil {
		return err
	}
	if fs := d.faults; fs != nil {
		if err := writeU64(fs.spareLines); err != nil {
			return err
		}
		if err := writeU64(fs.spareNext); err != nil {
			return err
		}
		if err := writeSortedPairs(writeU64, fs.remap); err != nil {
			return err
		}
		ecp := make(map[uint64]uint64, len(fs.ecpUsed))
		for a, n := range fs.ecpUsed {
			ecp[a] = uint64(n)
		}
		if err := writeSortedPairs(writeU64, ecp); err != nil {
			return err
		}
		stuck := sortedKeys(fs.stuck)
		if err := writeU64(uint64(len(stuck))); err != nil {
			return err
		}
		for _, a := range stuck {
			if err := writeU64(a); err != nil {
				return err
			}
		}
	}
	var written uint64
	for _, line := range d.store {
		if line != nil {
			written++
		}
	}
	if err := writeU64(written); err != nil {
		return err
	}
	for a, line := range d.store {
		if line == nil {
			continue
		}
		if err := writeU64(uint64(a)); err != nil {
			return err
		}
		if err := writeU64(d.WearOf(uint64(a))); err != nil {
			return err
		}
		if _, err := bw.Write(line[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeSortedPairs(writeU64 func(uint64) error, m map[uint64]uint64) error {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if err := writeU64(uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeU64(k); err != nil {
			return err
		}
		if err := writeU64(m[k]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[uint64]bool) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// LoadContents restores lines saved by SaveContents into this device. The
// device must be at least as large as the saved one (exactly as large for V2
// state, whose spare-region addresses are anchored at the saved line count).
// Existing contents are replaced; statistics and bank state are untouched
// (cold). When the stream carries fault structures, the device's fault layer
// is populated from them — call EnableFaults first to keep an injector armed.
func (d *Device) LoadContents(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("nvm: reading magic: %w", err)
	}
	v2 := string(magic) == stateMagicV2
	if !v2 && string(magic) != stateMagic {
		return fmt.Errorf("nvm: bad state magic %q", magic)
	}
	var b8 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, b8[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b8[:]), nil
	}
	savedLines, err := readU64()
	if err != nil {
		return err
	}
	if savedLines > d.geom.Lines() || savedLines > maxSavedLines {
		return fmt.Errorf("nvm: saved device has %d lines, this one %d", savedLines, d.geom.Lines())
	}
	addrBound := savedLines // highest valid stored address + 1
	if v2 {
		if savedLines != d.geom.Lines() {
			return fmt.Errorf("nvm: fault-carrying state for %d lines, device has %d", savedLines, d.geom.Lines())
		}
		bound, err := d.loadFaultSection(readU64, savedLines)
		if err != nil {
			return err
		}
		addrBound = bound
	}
	count, err := readU64()
	if err != nil {
		return err
	}
	if count > addrBound {
		return fmt.Errorf("nvm: saved state claims %d lines over %d", count, addrBound)
	}
	d.store, d.wear = nil, nil
	// The incremental wear views track d.wear, which is being replaced:
	// rebuild per-bank totals below and let SampleEpoch reseed the histogram.
	clear(d.bankWear)
	d.histReady = false
	for i := uint64(0); i < count; i++ {
		addr, err := readU64()
		if err != nil {
			return err
		}
		wear, err := readU64()
		if err != nil {
			return err
		}
		if addr >= addrBound {
			return fmt.Errorf("nvm: saved line %#x out of range", addr)
		}
		line := new([config.LineSize]byte)
		if _, err := io.ReadFull(br, line[:]); err != nil {
			return fmt.Errorf("nvm: line %#x contents: %w", addr, err)
		}
		d.store = dense.Grow(d.store, addr, addrBound)
		d.store[addr] = line
		if wear > 0 {
			d.wear = dense.Grow(d.wear, addr, addrBound)
			d.wear[addr] = wear
			d.bankWear[d.Bank(addr)] += wear
		}
	}
	return nil
}

// loadFaultSection reads the V2 fault structures into the device's fault
// layer, preserving any injector armed by EnableFaults, and returns the
// address bound including the spare region. Every length prefix and address
// is validated before allocation or use.
func (d *Device) loadFaultSection(readU64 func() (uint64, error), savedLines uint64) (uint64, error) {
	spareLines, err := readU64()
	if err != nil {
		return 0, err
	}
	if spareLines > savedLines {
		return 0, fmt.Errorf("nvm: saved spare region of %d lines exceeds device", spareLines)
	}
	spareNext, err := readU64()
	if err != nil {
		return 0, err
	}
	if spareNext > spareLines {
		return 0, fmt.Errorf("nvm: %d spare lines used of %d", spareNext, spareLines)
	}
	bound := savedLines + spareLines
	readPairs := func(name string, keyBound, valBound uint64) (map[uint64]uint64, error) {
		n, err := readU64()
		if err != nil {
			return nil, err
		}
		if n > savedLines {
			return nil, fmt.Errorf("nvm: saved state claims %d %s entries over %d lines", n, name, savedLines)
		}
		m := make(map[uint64]uint64, min64(n, 1<<16))
		for i := uint64(0); i < n; i++ {
			k, err := readU64()
			if err != nil {
				return nil, err
			}
			v, err := readU64()
			if err != nil {
				return nil, err
			}
			if k >= keyBound {
				return nil, fmt.Errorf("nvm: %s entry %#x out of range", name, k)
			}
			if v >= valBound {
				return nil, fmt.Errorf("nvm: %s value %#x out of range", name, v)
			}
			m[k] = v
		}
		return m, nil
	}
	remap, err := readPairs("remap", savedLines, bound)
	if err != nil {
		return 0, err
	}
	ecp, err := readPairs("ecp", bound, 1<<16)
	if err != nil {
		return 0, err
	}
	nStuck, err := readU64()
	if err != nil {
		return 0, err
	}
	if nStuck > savedLines {
		return 0, fmt.Errorf("nvm: saved state claims %d stuck lines over %d", nStuck, savedLines)
	}
	stuck := make(map[uint64]bool, min64(nStuck, 1<<16))
	for i := uint64(0); i < nStuck; i++ {
		a, err := readU64()
		if err != nil {
			return 0, err
		}
		if a >= savedLines {
			return 0, fmt.Errorf("nvm: stuck line %#x out of range", a)
		}
		stuck[a] = true
	}
	fs := d.ensureFaults()
	fs.remap = remap
	fs.ecpUsed = make(map[uint64]int, len(ecp))
	for a, n := range ecp {
		fs.ecpUsed[a] = int(n)
	}
	fs.stuck = stuck
	fs.spareLines = spareLines
	fs.spareNext = spareNext
	// Rederive bank retirement from the stuck set; run counters start fresh.
	fs.bankStuck = make([]int, len(d.banks))
	fs.banksRetired = 0
	for a := range stuck {
		phys := a
		if sp, ok := remap[a]; ok {
			phys = sp
		}
		fs.bankStuck[d.Bank(phys)]++
	}
	if fs.retireLimit > 0 {
		for _, n := range fs.bankStuck {
			if n >= fs.retireLimit {
				fs.banksRetired++
			}
		}
	}
	fs.wornWrites, fs.ecpCorrections, fs.remaps, fs.stuckWrites, fs.transientFlips = 0, 0, 0, 0, 0
	return bound, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

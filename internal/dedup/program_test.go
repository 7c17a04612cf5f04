package dedup

import (
	"bytes"
	"slices"
	"testing"

	"dewrite/internal/rng"
)

// oracleTables is the tables' placement as it was before their free list
// was exact, kept as a test oracle: release appends every freed location to
// a LIFO slice, whose entries go stale when their location is re-claimed
// through its own slot or retired; allocation pops the slice, skipping
// stale entries, then takes the next never-claimed location, then rescans.
// Mappings, reference counts and fingerprint chains are kept only as far as
// placement needs them.
type oracleTables struct {
	real      []uint64 // logical → location+1; 0 means unmapped
	refs      []uint
	hash      []uint32
	retired   []bool
	chains    oracleIndex
	freed     []uint64
	freshScan uint64
}

func newOracleTables(lines uint64) *oracleTables {
	return &oracleTables{
		real: make([]uint64, lines), refs: make([]uint, lines),
		hash: make([]uint32, lines), retired: make([]bool, lines),
		chains: oracleIndex{},
	}
}

func (o *oracleTables) allocatable(a uint64) bool { return o.refs[a] == 0 && !o.retired[a] }

func (o *oracleTables) release(logical uint64) (uint64, bool) {
	if o.real[logical] == 0 {
		return 0, false
	}
	a := o.real[logical] - 1
	o.real[logical] = 0
	if o.refs[a]--; o.refs[a] > 0 {
		return 0, false
	}
	o.chains.remove(o.hash[a], a)
	o.freed = append(o.freed, a)
	return a, true
}

func (o *oracleTables) allocate() (uint64, bool) {
	for len(o.freed) > 0 {
		a := o.freed[len(o.freed)-1]
		o.freed = o.freed[:len(o.freed)-1]
		if o.allocatable(a) {
			return a, true
		}
	}
	for ; o.freshScan < uint64(len(o.refs)); o.freshScan++ {
		if o.allocatable(o.freshScan) {
			o.freshScan++
			return o.freshScan - 1, true
		}
	}
	for a := range o.refs {
		if o.allocatable(uint64(a)) {
			return uint64(a), true
		}
	}
	return 0, false
}

func (o *oracleTables) place(logical uint64, h uint32) (uint64, bool) {
	a := logical
	if !o.allocatable(a) {
		var ok bool
		if a, ok = o.allocate(); !ok {
			return 0, false
		}
	}
	o.refs[a], o.hash[a] = 1, h
	o.chains.add(h, a)
	o.real[logical] = a + 1
	return a, true
}

func (o *oracleTables) placeUnique(logical uint64, h uint32) placement {
	freed, didFree := o.release(logical)
	chosen, ok := o.place(logical, h)
	return placement{chosen, freed, didFree && freed != chosen, ok}
}

func (o *oracleTables) mapDuplicate(logical, target uint64) placement {
	if o.real[logical] == target+1 {
		return placement{chosen: target, ok: true}
	}
	freed, didFree := o.release(logical)
	o.real[logical] = target + 1
	o.refs[target]++
	return placement{target, freed, didFree, true}
}

func (o *oracleTables) relocateStuck(logical uint64) placement {
	a := o.real[logical] - 1
	h := o.hash[a]
	o.release(logical)
	o.retired[a] = true
	chosen, ok := o.place(logical, h)
	return placement{chosen: chosen, ok: ok}
}

// placement is what one operation chose: the location logical maps to
// afterwards, the location its release freed, and whether it found one.
type placement struct {
	chosen, freed uint64
	didFree, ok   bool
}

func placeUnique(t *Tables, logical uint64, h uint32) placement {
	chosen, freed, didFree, ok := t.TryPlaceUnique(logical, h)
	return placement{chosen, freed, didFree, ok}
}

func mapDuplicate(t *Tables, logical, target uint64) placement {
	freed, didFree := t.MapDuplicate(logical, target)
	return placement{target, freed, didFree, true}
}

func relocateStuck(t *Tables, logical uint64) placement {
	chosen, ok := t.RelocateStuck(logical)
	return placement{chosen: chosen, ok: ok}
}

// A tables program is a sequence of operations on one table.
type tablesOp struct {
	kind    byte
	logical uint64
	h       uint32 // opDuplicate's fingerprint, one of dupAlphabet
}

const (
	opUnique    = iota // data no other write has: a fresh fingerprint
	opDuplicate        // data of fingerprint h: mapped onto h's first acceptable candidate, else placed
	opStuck            // opUnique whose device write fails at the chosen location: relocated
	opRoundTrip        // the twin is saved to a snapshot and restored from it

	// dupAlphabet fingerprints are all duplicates draw from, so their
	// chains grow past one location once a location saturates.
	dupAlphabet = 4
)

// runTablesProgram runs prog on tables that never restart, on a twin that
// is round-tripped through a snapshot at every opRoundTrip, and on the
// oracle. It fails t at the first operation where the three differ in a
// choice, in a duplicate's candidates or in the retired count, or where
// either table breaks an invariant.
func runTablesProgram(t *testing.T, lines uint64, maxRef uint, prog []tablesOp) {
	t.Helper()
	a, b, o := NewTables(lines, maxRef), NewTables(lines, maxRef), newOracleTables(lines)
	fresh := uint32(dupAlphabet)
	for i, op := range prog {
		var got, twin, want placement
		same := func() {
			if got != want || twin != want {
				t.Fatalf("op %d (%+v): chose %+v, twin %+v, oracle %+v", i, op, got, twin, want)
			}
		}
		switch op.kind {
		case opRoundTrip:
			var buf bytes.Buffer
			if _, err := b.WriteTo(&buf); err != nil {
				t.Fatalf("op %d: snapshot: %v", i, err)
			}
			restored, err := ReadTables(&buf, lines)
			if err != nil {
				t.Fatalf("op %d: restore: %v", i, err)
			}
			b = restored
		case opDuplicate:
			cands := a.Candidates(op.h)
			if !slices.Equal(b.Candidates(op.h), cands) || !slices.Equal(o.chains[op.h], cands) {
				t.Fatalf("op %d: candidates of %d: %v, twin %v, oracle %v",
					i, op.h, cands, b.Candidates(op.h), o.chains[op.h])
			}
			k := slices.IndexFunc(cands, a.Acceptable)
			if k < 0 {
				got, twin, want = placeUnique(a, op.logical, op.h), placeUnique(b, op.logical, op.h), o.placeUnique(op.logical, op.h)
				break
			}
			target := cands[k]
			got, twin, want = mapDuplicate(a, op.logical, target), mapDuplicate(b, op.logical, target), o.mapDuplicate(op.logical, target)
		default:
			fresh++
			got, twin, want = placeUnique(a, op.logical, fresh), placeUnique(b, op.logical, fresh), o.placeUnique(op.logical, fresh)
			if same(); op.kind == opStuck && got.ok {
				got, twin, want = relocateStuck(a, op.logical), relocateStuck(b, op.logical), o.relocateStuck(op.logical)
			}
		}
		same()
		if r := a.RetiredCount(); b.RetiredCount() != r || r != countTrue(o.retired) {
			t.Fatalf("op %d: %d retired, twin %d, oracle %d", i, r, b.RetiredCount(), countTrue(o.retired))
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("op %d: twin: %v", i, err)
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// randomTablesProgram returns n operations over lines lines: duplicates and
// unique writes about evenly, a relocation with probability stuck, and a
// round trip every roundTrip operations.
func randomTablesProgram(seed uint64, n int, lines uint64, stuck float64, roundTrip int) []tablesOp {
	src := rng.New(seed)
	prog := make([]tablesOp, n)
	for i := range prog {
		op := tablesOp{kind: opUnique, logical: src.Uint64n(lines)}
		switch {
		case (i+1)%roundTrip == 0:
			op.kind = opRoundTrip
		case src.Bool(stuck):
			op.kind = opStuck
		case src.Bool(0.5):
			op.kind, op.h = opDuplicate, uint32(src.Intn(dupAlphabet))
		}
		prog[i] = op
	}
	return prog
}

// maxTablesOps bounds the program one fuzz input decodes into.
const maxTablesOps = 512

// decodeTablesProgram decodes data: the first byte gives 4 to 67 lines (low
// six bits) and a reference limit of 2 to 5 (top two), then each pair of
// bytes is one operation. The first byte's low nibble picks the kind
// (unique 0-5, duplicate 6-11, relocation 12-13, round trip 14-15) and bits
// 4-5 a duplicate's fingerprint; the second byte, modulo lines, picks the
// line written.
func decodeTablesProgram(data []byte) (lines uint64, maxRef uint, prog []tablesOp) {
	if len(data) == 0 {
		return 0, 0, nil
	}
	lines, maxRef = 4+uint64(data[0]&63), 2+uint(data[0]>>6)
	for data = data[1:]; len(data) >= 2 && len(prog) < maxTablesOps; data = data[2:] {
		op := tablesOp{kind: opUnique, logical: uint64(data[1]) % lines}
		switch k := data[0] & 15; {
		case k >= 14:
			op.kind = opRoundTrip
		case k >= 12:
			op.kind = opStuck
		case k >= 6:
			op.kind, op.h = opDuplicate, uint32(data[0]>>4&3)
		}
		prog = append(prog, op)
	}
	return lines, maxRef, prog
}

// encodeTablesProgram is decodeTablesProgram's inverse for lines of 4 to
// 67, reference limits of 2 to 5 and programs of at most maxTablesOps.
func encodeTablesProgram(lines uint64, maxRef uint, prog []tablesOp) []byte {
	data := []byte{byte(lines-4) | byte(maxRef-2)<<6}
	for _, op := range prog {
		k := [...]byte{opUnique: 0, opDuplicate: 6, opStuck: 12, opRoundTrip: 14}[op.kind]
		data = append(data, k|byte(op.h)<<4, byte(op.logical))
	}
	return data
}

// FuzzTablesRoundTrip checks that a table restored from a snapshot keeps
// making the choices of one that never restarted, and that both make those
// of the oracle, over any program of unique writes, duplicates, stuck
// relocations and round trips.
func FuzzTablesRoundTrip(f *testing.F) {
	const lines = 16
	var overwrites, alternations []tablesOp
	for i := 0; i < 150; i++ {
		overwrites = append(overwrites, tablesOp{kind: opUnique, logical: 5})
		alternations = append(alternations,
			tablesOp{kind: opDuplicate, logical: 5, h: 1},
			tablesOp{kind: opUnique, logical: 5})
	}
	overwrites[100].kind = opRoundTrip
	alternations[101].kind = opRoundTrip
	// The alternating line's first duplicate finds no candidate and places
	// the fingerprint it is then a duplicate of, at line 9.
	alternations[0].logical = 9
	f.Add(encodeTablesProgram(lines, 4, overwrites))
	f.Add(encodeTablesProgram(lines, 4, alternations))
	f.Add(encodeTablesProgram(lines, 3, randomTablesProgram(3, maxTablesOps, lines, 0, 64)))
	f.Add(encodeTablesProgram(64, 2, randomTablesProgram(4, maxTablesOps, 64, 0.02, 50)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if lines, maxRef, prog := decodeTablesProgram(data); len(prog) > 0 {
			runTablesProgram(t, lines, maxRef, prog)
		}
	})
}

// TestRoundTripTwinKeepsChoices: over 20,000 random operations, with
// duplicates over chains of several locations and with and without stuck
// relocations, a table snapshotted and restored every 2,000 operations
// makes every choice of one that never restarted. The tables' snapshot used
// to restore each chain in address order, the free list compacted to each
// location's oldest entry and no retirements.
func TestRoundTripTwinKeepsChoices(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stuck float64
	}{{"no retirements", 0}, {"retirements", 0.002}} {
		t.Run(tc.name, func(t *testing.T) {
			runTablesProgram(t, 256, 4, randomTablesProgram(21, 20000, 256, tc.stuck, 2000))
		})
	}
}

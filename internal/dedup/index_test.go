package dedup

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"dewrite/internal/rng"
)

// oracleIndex is the fingerprint index as a map of chains, appended to at
// the end and emptied by moving the last entry into the hole: the order the
// index must reproduce.
type oracleIndex map[uint32][]uint64

func (o oracleIndex) add(h uint32, a uint64) { o[h] = append(o[h], a) }

func (o oracleIndex) remove(h uint32, a uint64) {
	list := o[h]
	i := slices.Index(list, a)
	list[i] = list[len(list)-1]
	if list = list[:len(list)-1]; len(list) == 0 {
		delete(o, h)
	} else {
		o[h] = list
	}
}

// indexCoverage records which hard cases a program reached.
type indexCoverage struct {
	grew       bool // the slot array doubled while it held fingerprints
	wrapped    bool // a removal emptied a slot whose cluster wraps past the end
	oneToTwo   bool // a one-location chain gained a second location
	twoToOne   bool // a two-location chain lost one
	reused     bool // a fingerprint emptied earlier was indexed again
	longChains bool // a chain reached four locations
}

// maxIndexOps bounds the program one input decodes into.
const maxIndexOps = 256

// runIndexProgram decodes data into a program of inserts and removals, runs
// it on an index and on the oracle, fails t as soon as they differ, and
// marks in cov the hard cases it reached. The first byte's low bit masks
// fingerprints to 3 bits (long chains); each operation is one byte, an
// insert of a fresh location under the next four bytes' fingerprint below
// 0xa0 and otherwise a removal of the live entry the next byte picks.
func runIndexProgram(t *testing.T, data []byte, cov *indexCoverage) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	mask := ^uint32(0)
	if data[0]&1 == 1 {
		mask = 7
	}
	data = data[1:]
	var x index
	o := oracleIndex{}
	type entry struct {
		h uint32
		a uint64
	}
	var live []entry
	var touched []uint32
	var next uint64
	for step := 0; step < maxIndexOps && len(data) > 0; step++ {
		op := data[0]
		data = data[1:]
		if op < 0xa0 {
			if len(data) < 4 {
				break
			}
			h := binary.LittleEndian.Uint32(data) & mask
			data = data[4:]
			switch n := len(o[h]); {
			case n == 0 && slices.Contains(touched, h):
				cov.reused = true
			case n == 1:
				cov.oneToTwo = true
			case n == 3:
				cov.longChains = true
			}
			size := len(x.slots)
			x.add(h, next)
			o.add(h, next)
			if size > 0 && len(x.slots) > size {
				cov.grew = true
			}
			live = append(live, entry{h, next})
			if !slices.Contains(touched, h) {
				touched = append(touched, h)
			}
			next++
		} else {
			if len(data) < 1 || len(live) == 0 {
				break
			}
			k := int(data[0]) % len(live)
			data = data[1:]
			e := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			switch len(o[e.h]) {
			case 1:
				if clusterWraps(&x, e.h) {
					cov.wrapped = true
				}
			case 2:
				cov.twoToOne = true
			}
			if !x.remove(e.h, e.a) {
				t.Fatalf("step %d: remove(%#x, %d) not found", step, e.h, e.a)
			}
			o.remove(e.h, e.a)
		}
		checkAgainstOracle(t, step, &x, o, touched)
	}
}

// clusterWraps reports whether h's slot starts a run of occupied slots that
// reaches the end of the array and continues at slot 0.
func clusterWraps(x *index, h uint32) bool {
	i, ok := x.find(h)
	if !ok || x.slots[0].n == 0 {
		return false
	}
	for ; i < uint64(len(x.slots)); i++ {
		if x.slots[i].n == 0 {
			return false
		}
	}
	return true
}

// checkAgainstOracle fails t unless every touched fingerprint's chain equals
// the oracle's, the index holds as many entries and fingerprints as the
// oracle, and its load is at most one half.
func checkAgainstOracle(t *testing.T, step int, x *index, o oracleIndex, touched []uint32) {
	t.Helper()
	for _, h := range touched {
		if got, want := x.chain(h), o[h]; !slices.Equal(got, want) {
			t.Fatalf("step %d: chain(%#x) = %v, want %v", step, h, got, want)
		}
	}
	var entries, want uint64
	occupied := 0
	for i := range x.slots {
		if x.slots[i].n != 0 {
			occupied++
			entries += uint64(len(x.at(uint64(i))))
		}
	}
	for _, list := range o {
		want += uint64(len(list))
	}
	if entries != want || occupied != len(o) || x.used != uint64(len(o)) {
		t.Fatalf("step %d: %d entries in %d slots (used %d), want %d in %d",
			step, entries, occupied, x.used, want, len(o))
	}
	if 2*x.used > uint64(len(x.slots)) {
		t.Fatalf("step %d: %d fingerprints in %d slots", step, x.used, len(x.slots))
	}
}

// FuzzFingerprintIndex checks the index against the map-of-chains oracle
// over any program of inserts and removals.
func FuzzFingerprintIndex(f *testing.F) {
	src := rng.New(18)
	for _, n := range []int{16, 200, 2000} {
		for _, width := range []byte{0, 1} {
			data := make([]byte, n)
			src.Fill(data)
			data[0] = width
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexProgram(t, data, new(indexCoverage)) })
}

// indexProgram encodes a random program of n operations for
// runIndexProgram: inserts, with probability insert, under fingerprints
// drawn from a pool of the given size, so full-width fingerprints repeat
// too, and removals.
func indexProgram(src *rng.Source, width byte, n, pool int, insert float64) []byte {
	fps := make([]uint32, pool)
	for i := range fps {
		fps[i] = uint32(src.Uint64())
	}
	data := []byte{width}
	for i := 0; i < n; i++ {
		if src.Bool(insert) {
			data = append(data, byte(src.Intn(0xa0)))
			data = binary.LittleEndian.AppendUint32(data, fps[src.Intn(pool)])
		} else {
			data = append(data, 0xa0+byte(src.Intn(0x60)), byte(src.Intn(256)))
		}
	}
	return data
}

// TestIndexMatchesOracle runs random programs over 3-bit and full-width
// fingerprints and requires each width to reach every hard case: growth, a
// wrapping backward shift, both one↔two chain transitions, long chains and
// a fingerprint emptied and reused.
func TestIndexMatchesOracle(t *testing.T) {
	src := rng.New(7)
	for _, width := range []byte{0, 1} {
		var cov indexCoverage
		for prog := 0; prog < 200; prog++ {
			pool := []int{4, 32, 1024}[prog%3]
			insert := []float64{0.5, 0.6}[prog%2]
			runIndexProgram(t, indexProgram(src, width, src.Intn(maxIndexOps), pool, insert), &cov)
		}
		want := indexCoverage{true, true, true, true, true, true}
		if cov != want {
			t.Errorf("fingerprint mask bit %d: programs reached %+v, want every case", width, cov)
		}
	}
}

// TestIndexBackwardShiftAcrossWrap: removing the head of a cluster that
// wraps past the end of the slot array moves every later entry whose probe
// passed the hole back by one, across the wrap, so all stay findable.
func TestIndexBackwardShiftAcrossWrap(t *testing.T) {
	var x index
	for len(x.slots) < 16 {
		x.grow()
	}
	last := uint64(len(x.slots) - 1)
	var atLast []uint32
	var atZero uint32
	for h := uint32(1); len(atLast) < 3 || atZero == 0; h++ {
		switch x.home(h) {
		case last:
			if len(atLast) < 3 {
				atLast = append(atLast, h)
			}
		case 0:
			if atZero == 0 {
				atZero = h
			}
		}
	}
	a, b, c := atLast[0], atLast[1], atLast[2]
	x.add(a, 10) // slot 15
	x.add(b, 11) // slot 0
	x.add(c, 12) // slot 1
	x.add(atZero, 13)
	if !x.remove(a, 10) {
		t.Fatal("remove of the cluster head failed")
	}
	for h, want := range map[uint32]uint64{b: 11, c: 12, atZero: 13} {
		if got := x.chain(h); len(got) != 1 || got[0] != want {
			t.Errorf("chain(%#x) = %v, want [%d]", h, got, want)
		}
	}
	if x.chain(a) != nil {
		t.Errorf("removed fingerprint still has chain %v", x.chain(a))
	}
	if i, _ := x.find(b); i != last {
		t.Errorf("fingerprint homed at slot %d moved to %d, want %d", last, i, last)
	}
	if x.slots[2].n != 0 {
		t.Error("the cluster's last slot was not emptied")
	}
}

// TestIndexSizeBound: NewTables allocates no slots, and filling every line
// with a distinct fingerprint leaves at most 2·nextPow2(lines) slots.
func TestIndexSizeBound(t *testing.T) {
	for _, lines := range []uint64{1, 2, 3, 5, 8, 100, 512, 1000} {
		tb := NewTables(lines, 8)
		if tb.hash.slots != nil {
			t.Fatalf("%d lines: NewTables allocated %d slots", lines, len(tb.hash.slots))
		}
		for a := uint64(0); a < lines; a++ {
			tb.PlaceUnique(a, uint32(a)*2654435761)
		}
		bound := uint64(2) << bits.Len64(lines-1)
		if got := uint64(len(tb.hash.slots)); got > bound || tb.hash.used != lines {
			t.Errorf("%d lines: %d fingerprints in %d slots, want %d in at most %d",
				lines, tb.hash.used, got, lines, bound)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("%d lines: %v", lines, err)
		}
	}
}

// TestTablesProgramsKeepInvariants runs random unique and duplicate writes
// over a small device, with 3-bit and full-width fingerprints, and checks
// every invariant after each step.
func TestTablesProgramsKeepInvariants(t *testing.T) {
	const lines = 48
	for _, mask := range []uint32{7, ^uint32(0)} {
		for seed := uint64(1); seed <= 4; seed++ {
			tb := NewTables(lines, 3)
			src := rng.New(seed)
			for step := 0; step < 2000; step++ {
				logical := src.Uint64n(lines)
				h := uint32(src.Uint64()) & mask
				if src.Bool(0.5) {
					h = uint32(src.Intn(4)) & mask
				}
				dup := false
				if src.Bool(0.6) {
					for _, cand := range tb.Candidates(h) {
						if tb.Acceptable(cand) || tb.IsSelfDuplicate(logical, cand) {
							tb.MapDuplicate(logical, cand)
							dup = true
							break
						}
					}
				}
				if !dup {
					tb.PlaceUnique(logical, h)
				}
				if err := tb.CheckInvariants(); err != nil {
					t.Fatalf("mask %#x seed %d step %d: %v", mask, seed, step, err)
				}
			}
		}
	}
}

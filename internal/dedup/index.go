package dedup

import (
	"math/bits"
	"slices"
)

// index is the fingerprint index: for each fingerprint, the chain of live
// locations whose data carries it, in the order the duplicate check verifies
// them. It is an open-addressed table of pointer-free slots, so the garbage
// collector never scans it, probed linearly from the top bits of a
// golden-ratio multiplicative hash of the fingerprint (the flat array
// NV-Dedup indexes its weak fingerprints in). The load stays at most one
// half and removal shifts the rest of a cluster back, so there are no
// tombstones and a lookup ends at the first empty slot.
//
// A chain is appended to at its end and loses an entry by moving its last
// entry into the hole, the same order whether it is held in its slot or in
// the slab, so the candidate verified first never depends on how the index
// is laid out. A one-location chain, the common case because fresh data has
// a unique fingerprint, lives in its slot; longer ones live in chains, whose
// emptied arrays are kept in spare for the next chain, so a steady-state
// write allocates nothing.
//
// The zero index is empty and holds no slots: the slot array is allocated
// on the first insert and doubles when the load would pass one half. At
// most one fingerprint per live location is held, so over lines locations
// the array never outgrows 2·nextPow2(lines) slots.
type index struct {
	slots  []slot
	shift  uint       // 64 - log2(len(slots)): home slot = top bits of the hash
	used   uint64     // occupied slots, one per fingerprint with a live location
	chains [][]uint64 // chains of two or more locations, by slot.loc[0]
	spare  []uint64   // indices of emptied arrays in chains
}

// slot is one fingerprint's entry; 16 bytes, no pointers.
type slot struct {
	h uint32 // fingerprint
	// n is 0 for an empty slot, 1 when loc[0] is the chain's one location,
	// and 2 when the chain is longer and loc[0] indexes it in chains.
	n   uint32
	loc [1]uint64 // an array, so a one-location chain is a view of its slot
}

// home returns the slot a probe for h starts at.
func (x *index) home(h uint32) uint64 {
	return (uint64(h) * 0x9e3779b97f4a7c15) >> x.shift
}

// find returns h's slot and true, or else false and the empty slot where h
// would go, if the slot array is allocated.
func (x *index) find(h uint32) (uint64, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.home(h); ; i = (i + 1) & mask {
		switch s := &x.slots[i]; {
		case s.n == 0:
			return i, false
		case s.h == h:
			return i, true
		}
	}
}

// chain returns the locations indexed under h (nil for none). The slice is
// owned by the index and valid until its next change.
func (x *index) chain(h uint32) []uint64 {
	if i, ok := x.find(h); ok {
		return x.at(i)
	}
	return nil
}

// at returns the chain held by the occupied slot i.
func (x *index) at(i uint64) []uint64 {
	s := &x.slots[i]
	if s.n == 1 {
		return s.loc[:]
	}
	return x.chains[s.loc[0]]
}

// add appends location a to h's chain.
func (x *index) add(h uint32, a uint64) {
	i, ok := x.find(h)
	if !ok {
		if 2*(x.used+1) > uint64(len(x.slots)) {
			x.grow()
			i, _ = x.find(h)
		}
		x.slots[i] = slot{h: h, n: 1, loc: [1]uint64{a}}
		x.used++
		return
	}
	s := &x.slots[i]
	if s.n == 2 {
		x.chains[s.loc[0]] = append(x.chains[s.loc[0]], a)
		return
	}
	// A second location moves the chain from its slot to the slab.
	var c uint64
	if n := len(x.spare); n > 0 {
		c = x.spare[n-1]
		x.spare = x.spare[:n-1]
	} else {
		c = uint64(len(x.chains))
		x.chains = append(x.chains, nil)
	}
	x.chains[c] = append(x.chains[c], s.loc[0], a)
	s.n, s.loc[0] = 2, c
}

// remove takes location a out of h's chain, moving the chain's last entry
// into its place. It reports false when the chain does not list a.
func (x *index) remove(h uint32, a uint64) bool {
	i, ok := x.find(h)
	if !ok {
		return false
	}
	s := &x.slots[i]
	if s.n == 1 {
		if s.loc[0] != a {
			return false
		}
		x.vacate(i)
		x.used--
		return true
	}
	c := s.loc[0]
	list := x.chains[c]
	k := slices.Index(list, a)
	if k < 0 {
		return false
	}
	last := len(list) - 1
	list[k] = list[last]
	list = list[:last]
	if len(list) == 1 {
		// Back into the slot; the emptied array goes to spare.
		s.n, s.loc[0] = 1, list[0]
		x.chains[c] = list[:0]
		x.spare = append(x.spare, c)
	} else {
		x.chains[c] = list
	}
	return true
}

// vacate empties slot i by backward-shift deletion: each later entry of the
// cluster whose probe sequence passes the hole moves back into it, and the
// hole moves to where that entry was, until the cluster ends.
func (x *index) vacate(i uint64) {
	mask := uint64(len(x.slots) - 1)
	for j := (i + 1) & mask; x.slots[j].n != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].h))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = slot{}
}

// grow doubles the slot array (the first one has two slots) and reinserts
// every fingerprint. Chains do not move.
func (x *index) grow() {
	old := x.slots
	n := max(2*len(old), 2)
	x.slots = make([]slot, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.n != 0 {
			i, _ := x.find(s.h)
			x.slots[i] = s
		}
	}
}

package dedup

import (
	"fmt"
	"sort"

	"dewrite/internal/dense"
)

// Recovery scrub and graceful-degradation support: rebuilding consistent
// tables from whatever metadata survived an unclean power loss, and retiring
// storage locations whose device lines can no longer be written.

// RecoveredMapping is one persisted logical → location mapping that survived
// crash-time verification (generation tag and ciphertext checks are the
// caller's job — the controller owns the crypto).
type RecoveredMapping struct {
	Logical, Location uint64
}

// LocationMeta is the persisted per-location state the inverted hash table
// holds: the data fingerprint and the zero-line flag.
type LocationMeta struct {
	Hash   uint32
	IsZero bool
}

// Mappings returns every current logical → location mapping, sorted by
// logical address — the deterministic iteration order crash recovery needs.
func (t *Tables) Mappings() []RecoveredMapping {
	var out []RecoveredMapping
	for i := range t.real {
		if a, ok := t.mapping(uint64(i)); ok {
			out = append(out, RecoveredMapping{Logical: uint64(i), Location: a})
		}
	}
	return out
}

// Rebuild constructs consistent tables from verified crash survivors: the
// mappings to honour and the per-location metadata for every location they
// reference. Reference counts are recomputed from the mappings themselves
// (persisted counts are untrusted after a crash). A location's recovered
// count can exceed maxRef when stale-but-tag-valid mappings pile up; excess
// mappings are dropped deterministically (highest logical first) and the
// dropped logicals returned so the caller can poison them — dropping one
// silently would turn its reads into "never written" zeros. The result
// always passes CheckInvariants.
func Rebuild(lines uint64, maxRef uint, mappings []RecoveredMapping, meta map[uint64]LocationMeta) (t *Tables, dropped []uint64, err error) {
	t = NewTables(lines, maxRef)
	sorted := append([]RecoveredMapping(nil), mappings...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Logical < sorted[j].Logical })
	for _, m := range sorted {
		if m.Logical >= lines || m.Location >= lines {
			return nil, nil, fmt.Errorf("dedup: recovered mapping %#x → %#x out of range", m.Logical, m.Location)
		}
		lm, ok := meta[m.Location]
		if !ok {
			return nil, nil, fmt.Errorf("dedup: recovered mapping %#x → %#x references unverified location", m.Logical, m.Location)
		}
		switch l := t.liveAt(m.Location); {
		case l == nil:
			t.claim(m.Location, location{hash: lm.Hash, refs: 1, isZero: lm.IsZero})
		case l.refs >= maxRef:
			dropped = append(dropped, m.Logical)
			continue
		default:
			l.refs++
		}
		t.setMapping(m.Logical, m.Location)
	}
	if err := t.CheckInvariants(); err != nil {
		return nil, nil, fmt.Errorf("dedup: rebuilt tables inconsistent: %w", err)
	}
	return t, dropped, nil
}

// Retire permanently removes a free storage location from the allocation
// pool — the controller calls it when the device reports the line stuck.
// Retiring a live location is a bug (its data would be orphaned).
func (t *Tables) Retire(loc uint64) {
	t.checkAddr(loc)
	if t.liveAt(loc) != nil {
		panic(fmt.Sprintf("dedup: retiring live location %#x", loc))
	}
	t.loc = dense.Grow(t.loc, loc, t.lines)
	if !t.loc[loc].retired {
		t.unlink(loc)
		t.loc[loc].retired = true
		t.retired++
	}
}

// RetiredCount returns the number of retired locations.
func (t *Tables) RetiredCount() int { return int(t.retired) }

// RelocateStuck re-places logical's just-written unique data after the
// device failed the write at its current location: the mapping is released,
// the failed location retired, and a fresh location chosen the same way
// PlaceUnique would. It returns false when no allocatable location remains
// (logical is then left unmapped and the caller must poison it). Only valid
// while logical is the sole reference to its location — i.e. immediately
// after PlaceUnique.
func (t *Tables) RelocateStuck(logical uint64) (chosen uint64, ok bool) {
	t.checkAddr(logical)
	locAddr, mapped := t.mapping(logical)
	if !mapped {
		panic(fmt.Sprintf("dedup: relocating unmapped logical %#x", logical))
	}
	l := t.liveAt(locAddr)
	if l == nil || l.refs != 1 {
		panic(fmt.Sprintf("dedup: relocating shared or free location %#x", locAddr))
	}
	h, isZero := l.hash, l.isZero
	t.release(logical)
	t.Retire(locAddr)
	t.relocations.Inc()
	return t.place(logical, location{hash: h, refs: 1, isZero: isZero})
}

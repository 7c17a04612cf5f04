// Package dedup implements the four metadata structures from Section III-B2
// of the paper — the address mapping table, the hash table, the inverted hash
// table and the free-space-management (FSM) table — together with the
// reference-counting rules that keep them consistent.
//
// This package is the functional layer: it answers "where does logical line
// X's data live", "which locations hold data with this fingerprint", and
// maintains liveness/refcounts. The timed layer (internal/core) decides when
// each metadata access pays an on-chip cache hit or an NVM round trip, using
// the Layout type in this package to map table entries onto NVM metadata
// lines.
//
// Terminology: a *logical* address (the paper's initAddr) is the line number
// the CPU addresses; a *location* (the paper's realAddr) is the physical line
// slot in the device that stores data. Deduplication makes the mapping
// many-to-one.
package dedup

import (
	"fmt"
	"slices"

	"dewrite/internal/dense"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// Tables holds the deduplication metadata for a device with a fixed number
// of data lines. Not safe for concurrent use.
type Tables struct {
	lines  uint64
	maxRef uint

	// The address mapping table (real) and the per-location state (loc:
	// the inverted hash entry, reference count and FSM flags) are indexed
	// by line address, as in the paper's NVM layout. Both grow on first
	// touch (dense.Grow); an entry past the end reads as its zero value.
	real []uint64   // logical → location+1; 0 means never written
	loc  []location // location → state; refs == 0 means free
	live uint64     // locations with refs > 0

	hash index // fingerprint → live locations with that fingerprint

	// The FSM table: a doubly-linked free list threaded through loc, newest
	// first, and a cursor over locations never claimed. release pushes a
	// location, and a claim or a retirement unlinks it wherever it sits, so
	// the list holds exactly the free, unretired locations that were freed
	// since they were last claimed, each once. Below the cursor every free,
	// unretired location is listed (CheckInvariants).
	head      uint32 // newest listed location+1; 0 when the list is empty
	freshScan uint64 // cursor over never-allocated locations
	retired   uint64 // locations permanently removed from allocation

	// mappedAway counts logical lines whose data lives at a foreign
	// location, maintained incrementally so per-epoch sampling does not
	// rescan the mapping table.
	mappedAway uint64

	// publish, when non-nil, observes every change to the fingerprint
	// index: +1 when a live location is added under a fingerprint, -1 when
	// one is removed. The sharded execution mode installs a hook feeding
	// the cross-shard fingerprint directory; nil costs one branch.
	publish func(h uint32, delta int)

	refHist     stats.Histogram
	duplicates  stats.Counter // writes eliminated as duplicates
	selfDups    stats.Counter // duplicates of the line's own current data
	uniques     stats.Counter // writes stored as unique data
	collisions  stats.Counter // fingerprint matches whose data differed
	saturated   stats.Counter // duplicates skipped due to refcount saturation
	displaced   stats.Counter // unique writes placed away from their own slot
	frees       stats.Counter // locations returned to the free pool
	relocations stats.Counter // placements redone after a device write failure
}

type location struct {
	hash uint32
	// prev and next link a listed location to its newer and older
	// neighbours on the free list, as location+1 (0 at either end). They
	// fill what would be padding, so the struct stays 24 bytes.
	prev   uint32
	refs   uint
	next   uint32
	isZero bool
	// retired marks a free location removed from allocation because its
	// device line is stuck; a retired location is never live.
	retired bool
	listed  bool // on the free list
}

// NewTables returns empty metadata for a device with the given number of
// data lines. maxRef is the saturating reference-count limit (255 in the
// paper); a location at the limit no longer accepts new duplicates. The
// free list links locations by 32-bit numbers, so lines must be below 2^32.
func NewTables(lines uint64, maxRef uint) *Tables {
	if lines == 0 || lines >= 1<<32 {
		panic(fmt.Sprintf("dedup: %d data lines, want 1 to 2^32-1", lines))
	}
	if maxRef < 1 {
		panic("dedup: maxRef must be at least 1")
	}
	return &Tables{lines: lines, maxRef: maxRef}
}

func (t *Tables) checkAddr(a uint64) {
	if a >= t.lines {
		panic(fmt.Sprintf("dedup: address %#x beyond %d lines", a, t.lines))
	}
}

// LocationOf returns the storage location of logical's data. The second
// result is false if the line has never been written (then it has no data;
// reads of it are architecturally undefined and the simulator returns zero).
func (t *Tables) LocationOf(logical uint64) (uint64, bool) {
	t.checkAddr(logical)
	return t.mapping(logical)
}

// mapping returns logical's location; ok is false if it was never written.
func (t *Tables) mapping(logical uint64) (loc uint64, ok bool) {
	if logical < uint64(len(t.real)) && t.real[logical] != 0 {
		return t.real[logical] - 1, true
	}
	return 0, false
}

// liveAt returns the state of location a, or nil when a is free.
func (t *Tables) liveAt(a uint64) *location {
	if a < uint64(len(t.loc)) && t.loc[a].refs > 0 {
		return &t.loc[a]
	}
	return nil
}

// allocatable reports whether location a is free and not retired.
func (t *Tables) allocatable(a uint64) bool {
	return a >= uint64(len(t.loc)) || t.loc[a].refs == 0 && !t.loc[a].retired
}

// IsDeduplicated reports whether logical's data lives at a location shared
// with (or belonging to) another logical line, i.e. it was written as a
// duplicate. Displaced unique lines (own slot occupied) also map away from
// their slot but carry refs == 1.
func (t *Tables) IsDeduplicated(logical uint64) bool {
	t.checkAddr(logical)
	if loc, ok := t.mapping(logical); ok {
		return t.Refs(loc) > 1
	}
	return false
}

// IsLive reports whether the storage location holds current data.
func (t *Tables) IsLive(loc uint64) bool {
	t.checkAddr(loc)
	return t.liveAt(loc) != nil
}

// HashOf returns the fingerprint of the live data at loc. The second result
// is false if the location is free.
func (t *Tables) HashOf(loc uint64) (uint32, bool) {
	t.checkAddr(loc)
	if l := t.liveAt(loc); l != nil {
		return l.hash, true
	}
	return 0, false
}

// Refs returns the reference count of the live data at loc (0 if free).
func (t *Tables) Refs(loc uint64) uint {
	t.checkAddr(loc)
	if l := t.liveAt(loc); l != nil {
		return l.refs
	}
	return 0
}

// SetPublish attaches (or, with nil, detaches) the fingerprint-index
// observer: fn is called with (+1) for every live location added under a
// fingerprint and (-1) for every removal, covering the unique-write,
// relocation, recovery-rebuild and snapshot-restore paths. fn must not call
// back into the tables.
func (t *Tables) SetPublish(fn func(h uint32, delta int)) { t.publish = fn }

// indexHash is the single funnel adding a live location under a fingerprint;
// every insertion into the fingerprint index goes through it so the publish
// hook sees a complete stream.
func (t *Tables) indexHash(h uint32, locAddr uint64) {
	t.hash.add(h, locAddr)
	if t.publish != nil {
		t.publish(h, 1)
	}
}

// Candidates returns the live locations whose data carries the given
// fingerprint, in the order the duplication-detection path verifies them:
// a location placed under the fingerprint goes to the end, and one removed
// from it leaves its place to the last. The slice is owned by the tables
// and valid until their next change; a one-location result may be a view
// into the index itself. It must not be mutated.
func (t *Tables) Candidates(hash uint32) []uint64 {
	return t.hash.chain(hash)
}

// Acceptable reports whether loc can absorb one more duplicate reference,
// i.e. it is live and below the saturation limit (Section III-B2: a line at
// the limit is "highly referenced" and new duplicates of it are written as
// unique data instead).
func (t *Tables) Acceptable(loc uint64) bool {
	l := t.liveAt(loc)
	return l != nil && l.refs < t.maxRef
}

// NoteSaturatedSkip records that a true duplicate was processed as unique
// because its target's reference count was saturated.
func (t *Tables) NoteSaturatedSkip() { t.saturated.Inc() }

// NoteCollision records a fingerprint match whose byte-compare failed.
func (t *Tables) NoteCollision() { t.collisions.Inc() }

// IsSelfDuplicate reports whether target is already the storage location of
// logical's current data, i.e. the write is a line-level silent store and
// nothing needs to change.
func (t *Tables) IsSelfDuplicate(logical, target uint64) bool {
	l, ok := t.mapping(logical)
	return ok && l == target
}

// MapDuplicate redirects logical to the live location target, releasing
// logical's previous mapping. It must only be called when Acceptable(target)
// is true and the caller has byte-verified the data. It returns the location
// freed by the release, if any, so the timed layer can account the FSM
// update.
func (t *Tables) MapDuplicate(logical, target uint64) (freed uint64, didFree bool) {
	t.checkAddr(logical)
	t.checkAddr(target)
	l := t.liveAt(target)
	if l == nil {
		panic(fmt.Sprintf("dedup: MapDuplicate to free location %#x", target))
	}
	if t.IsSelfDuplicate(logical, target) {
		// A silent store: no reference change, so saturation is irrelevant.
		t.selfDups.Inc()
		t.duplicates.Inc()
		return 0, false
	}
	if l.refs >= t.maxRef {
		panic(fmt.Sprintf("dedup: MapDuplicate to saturated location %#x", target))
	}
	freed, didFree = t.release(logical)
	if didFree && freed == target {
		panic(fmt.Sprintf("dedup: released target %#x of MapDuplicate", target))
	}
	t.setMapping(logical, target)
	l.refs++
	t.duplicates.Inc()
	return freed, didFree
}

// setMapping points logical at loc, keeping the mapped-away census current.
// The caller must have released any previous mapping first.
func (t *Tables) setMapping(logical, loc uint64) {
	t.real = dense.Grow(t.real, logical, t.lines)
	t.real[logical] = loc + 1
	if logical != loc {
		t.mappedAway++
	}
}

// IsZeroLocation reports whether the live data at loc is flagged as the
// all-zero line. Hash entries carry this flag so a zero write can be matched
// without the verify read (the dedup logic knows a line is zero when it
// inserts it, and the incoming line's zero-ness is a combinational check).
func (t *Tables) IsZeroLocation(loc uint64) bool {
	l := t.liveAt(loc)
	return l != nil && l.isZero
}

// SetZeroFlag marks the live data at loc as the all-zero line. The caller
// (the controller) sets it right after placing a zero line.
func (t *Tables) SetZeroFlag(loc uint64) {
	if l := t.liveAt(loc); l != nil {
		l.isZero = true
	}
}

// PlaceUnique chooses and claims a storage location for new unique data
// written to logical, releasing logical's previous mapping first. It prefers
// logical's own slot when that slot is free (or becomes free by the
// release); otherwise it allocates a free location (the paper's FSM path).
// It returns the chosen location and the location freed by the release, if
// any and if different from the chosen one.
func (t *Tables) PlaceUnique(logical uint64, hash uint32) (chosen uint64, freed uint64, didFree bool) {
	chosen, freed, didFree, ok := t.TryPlaceUnique(logical, hash)
	if !ok {
		panic("dedup: no free location (pool exhausted by retirements, or refcount accounting broken)")
	}
	return chosen, freed, didFree
}

// TryPlaceUnique is PlaceUnique for devices that may have retired locations:
// when every non-retired location is live it reports ok=false instead of
// panicking. The release still happened — logical is then left unmapped and
// the caller must poison it.
func (t *Tables) TryPlaceUnique(logical uint64, hash uint32) (chosen uint64, freed uint64, didFree, ok bool) {
	t.checkAddr(logical)
	freed, didFree = t.release(logical)
	if chosen, ok = t.place(logical, location{hash: hash, refs: 1}); !ok {
		return 0, freed, didFree, false
	}
	if didFree && freed == chosen {
		didFree = false
	}
	t.uniques.Inc()
	return chosen, freed, didFree, true
}

// place claims a location for logical's new data l and maps logical to it,
// the one placement rule of unique writes and relocations: logical's own
// slot when it is allocatable, else the most recently freed location, else
// the next never-claimed one. Absent retirements a location always exists:
// the caller has released logical, so live locations < logical lines.
// Retirements shrink the pool, and place reports false once every
// unretired location is live.
func (t *Tables) place(logical uint64, l location) (uint64, bool) {
	a := logical
	if !t.allocatable(a) {
		if t.head != 0 {
			a = uint64(t.head - 1)
		} else {
			for t.freshScan < t.lines && !t.allocatable(t.freshScan) {
				t.freshScan++
			}
			if t.freshScan >= t.lines {
				return 0, false
			}
			a = t.freshScan
			t.freshScan++
		}
		t.displaced.Inc()
	}
	t.claim(a, l)
	t.setMapping(logical, a)
	return a, true
}

// claim makes free location a live with state l (l.refs > 0), taking it off
// the free list, and indexes it under its fingerprint.
func (t *Tables) claim(a uint64, l location) {
	t.loc = dense.Grow(t.loc, a, t.lines)
	t.unlink(a)
	t.loc[a] = l
	t.live++
	t.indexHash(l.hash, a)
}

// release detaches logical from its current data, decrementing the reference
// count of the location that held it and freeing the location when the count
// reaches zero (which also cleans the stale fingerprint, the inverted-hash-
// table operation of Section III-B2). Lines never written release nothing.
func (t *Tables) release(logical uint64) (freed uint64, didFree bool) {
	locAddr, ok := t.mapping(logical)
	if !ok {
		return 0, false // never written
	}
	l := t.liveAt(locAddr)
	if l == nil {
		panic(fmt.Sprintf("dedup: logical %#x mapped to free location %#x", logical, locAddr))
	}
	l.refs--
	t.real[logical] = 0
	if locAddr != logical {
		t.mappedAway--
	}
	if l.refs > 0 {
		return 0, false
	}
	// Last reference gone: clean the stale hash and free the location.
	t.removeHash(l.hash, locAddr)
	*l = location{}
	t.live--
	t.push(locAddr)
	t.frees.Inc()
	return locAddr, true
}

// removeHash is the single funnel removing a location from a fingerprint's
// chain, the counterpart of indexHash.
func (t *Tables) removeHash(h uint32, locAddr uint64) {
	if !t.hash.remove(h, locAddr) {
		panic(fmt.Sprintf("dedup: stale hash %#x for location %#x not found", h, locAddr))
	}
	if t.publish != nil {
		t.publish(h, -1)
	}
}

// push puts free location a, which must be unlisted, at the head of the
// free list.
func (t *Tables) push(a uint64) {
	l := &t.loc[a]
	l.listed, l.next = true, t.head
	if t.head != 0 {
		t.loc[t.head-1].prev = uint32(a + 1)
	}
	t.head = uint32(a + 1)
}

// unlink takes location a off the free list wherever it sits; an unlisted
// location is left as it is.
func (t *Tables) unlink(a uint64) {
	l := &t.loc[a]
	if !l.listed {
		return
	}
	if l.prev != 0 {
		t.loc[l.prev-1].next = l.next
	} else {
		t.head = l.next
	}
	if l.next != 0 {
		t.loc[l.next-1].prev = l.prev
	}
	l.prev, l.next, l.listed = 0, 0, false
}

// ObserveRefs samples the current reference count of every live location
// into the reference histogram (Figure 7).
func (t *Tables) ObserveRefs() {
	for i := range t.loc {
		if l := &t.loc[i]; l.refs > 0 {
			t.refHist.Observe(uint64(l.refs))
		}
	}
}

// RefHistogram returns the sampled reference-count histogram.
func (t *Tables) RefHistogram() *stats.Histogram { return &t.refHist }

// Stats is a snapshot of the dedup counters.
type Stats struct {
	Duplicates  uint64 // writes eliminated (including self-duplicates)
	SelfDups    uint64
	Uniques     uint64
	Collisions  uint64
	Saturated   uint64
	Displaced   uint64
	Frees       uint64
	LiveLines   uint64
	MappedAway  uint64 // logical lines whose data lives at a foreign location
	Relocations uint64 // placements redone after a device write failure
	Retired     uint64 // locations permanently removed from allocation
}

// Snapshot returns the current counters.
func (t *Tables) Snapshot() Stats {
	return Stats{
		Duplicates:  t.duplicates.Value(),
		SelfDups:    t.selfDups.Value(),
		Uniques:     t.uniques.Value(),
		Collisions:  t.collisions.Value(),
		Saturated:   t.saturated.Value(),
		Displaced:   t.displaced.Value(),
		Frees:       t.frees.Value(),
		LiveLines:   t.live,
		MappedAway:  t.mappedAway,
		Relocations: t.relocations.Value(),
		Retired:     t.retired,
	}
}

// SampleEpoch fills the epoch's dedup-table gauges: live storage locations
// and logical lines mapped away from their own slot. O(1), so per-epoch
// sampling stays off the write path's cost profile.
func (t *Tables) SampleEpoch(e *timeline.Epoch, _ units.Time) {
	e.DedupLive = t.live
	e.DedupMapped = t.mappedAway
}

// CheckInvariants validates the cross-table consistency rules and returns a
// descriptive error on the first violation. Tests call it after random
// operation sequences; it is O(lines + live) and not meant for inner loops.
func (t *Tables) CheckInvariants() error {
	// Census of mappings per location, recounting the mapped-away gauge.
	refCount := make([]uint, len(t.loc))
	var mapped uint64
	for logical := range t.real {
		locAddr, ok := t.mapping(uint64(logical))
		if !ok {
			continue
		}
		if t.liveAt(locAddr) == nil {
			return fmt.Errorf("logical %#x maps to free location %#x", logical, locAddr)
		}
		refCount[locAddr]++
		if uint64(logical) != locAddr {
			mapped++
		}
	}
	if mapped != t.mappedAway {
		return fmt.Errorf("mappedAway=%d but recount finds %d", t.mappedAway, mapped)
	}
	// The free list's links are consistent, and it lists only free,
	// unretired locations, each once.
	var listed uint64
	for newer, a := uint32(0), t.head; a != 0; newer, a = a, t.loc[a-1].next {
		if uint64(a) > uint64(len(t.loc)) {
			return fmt.Errorf("free list runs past location %#x", a-1)
		}
		// A cycle returns to some location from a second newer neighbour.
		switch l := &t.loc[a-1]; {
		case !l.listed || l.prev != newer:
			return fmt.Errorf("free list links location %#x inconsistently", a-1)
		case l.refs > 0 || l.retired:
			return fmt.Errorf("free list holds live or retired location %#x", a-1)
		}
		listed++
	}
	// Below the fresh cursor every free, unretired location is listed, so
	// placement never has to rescan for one; an untouched location is free.
	if t.freshScan > uint64(len(t.loc)) {
		return fmt.Errorf("free location %#x below the fresh cursor is not listed", len(t.loc))
	}
	// Per location: the listing and retirement flags agree with the list
	// and the count, and reference counts match the mapping census.
	var live, flagged, retired uint64
	for i := range t.loc {
		locAddr, l := uint64(i), &t.loc[i]
		if l.retired {
			retired++
		}
		switch {
		case l.listed:
			flagged++
		case l.prev != 0 || l.next != 0:
			return fmt.Errorf("unlisted location %#x has free-list links", locAddr)
		case locAddr < t.freshScan && l.refs == 0 && !l.retired:
			return fmt.Errorf("free location %#x below the fresh cursor is not listed", locAddr)
		}
		if l.refs == 0 {
			continue
		}
		live++
		if refCount[locAddr] != l.refs {
			return fmt.Errorf("location %#x refs=%d but %d logical lines map to it",
				locAddr, l.refs, refCount[locAddr])
		}
		if l.refs > t.maxRef {
			return fmt.Errorf("location %#x refs=%d exceeds max %d", locAddr, l.refs, t.maxRef)
		}
		// Retired locations are out of the pool and must never be live.
		if l.retired {
			return fmt.Errorf("retired location %#x is live", locAddr)
		}
		// Its hash entry must list it.
		if !slices.Contains(t.hash.chain(l.hash), locAddr) {
			return fmt.Errorf("live location %#x missing from hash chain %#x", locAddr, l.hash)
		}
	}
	if live != t.live {
		return fmt.Errorf("live=%d but recount finds %d", t.live, live)
	}
	if flagged != listed || retired != t.retired {
		return fmt.Errorf("%d locations flagged listed for %d on the free list, %d retired for a count of %d",
			flagged, listed, retired, t.retired)
	}
	// Hash chains only list live locations with that hash, and list each
	// once: every live location is in its chain, so entries beyond the live
	// count are repeats.
	var entries uint64
	for i := range t.hash.slots {
		if t.hash.slots[i].n == 0 {
			continue
		}
		h, list := t.hash.slots[i].h, t.hash.at(uint64(i))
		entries += uint64(len(list))
		for _, a := range list {
			l := t.liveAt(a)
			if l == nil {
				return fmt.Errorf("hash chain %#x lists free location %#x", h, a)
			}
			if l.hash != h {
				return fmt.Errorf("hash chain %#x lists location %#x with hash %#x", h, a, l.hash)
			}
		}
	}
	if entries != t.live {
		return fmt.Errorf("hash chains hold %d entries for %d live locations", entries, t.live)
	}
	return nil
}

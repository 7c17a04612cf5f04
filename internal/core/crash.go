package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"dewrite/internal/config"
	"dewrite/internal/dedup"
	"dewrite/internal/fault"
	"dewrite/internal/hashes"
)

// Crash-point recovery: the controller can snapshot exactly what the
// non-volatile arrays hold at an arbitrary instant — data lines are durable
// when written, metadata updates only once their cache line was written back
// — and rebuild a consistent controller from that state alone.
//
// The persistence shadow (pReal/pCtr/pMeta, maintained by persistLine on
// every metadata writeback) stands in for re-parsing the metadata region:
// it holds precisely the entry values the in-NVM tables would decode to.
// Recovery then scrubs: persisted mappings whose generation tag no longer
// matches the persisted counter are stale; locations whose ciphertext does
// not decrypt to the persisted fingerprint (or fail the on-chip integrity
// tree, whose root survives the crash) are divergent; mappings referencing
// either are dropped and their logical lines poisoned so reads fail
// detectably instead of returning wrong data.

// ErrPoisoned marks reads of lines whose data is known lost (crash recovery
// dropped them, or the device exhausted its spare capacity mid-write).
var ErrPoisoned = errors.New("data lost (poisoned line)")

// ErrIntegrity marks reads whose integrity-tree verification failed.
var ErrIntegrity = errors.New("integrity verification failed")

// Poisoned reports whether the logical line is marked data-lost.
func (c *Controller) Poisoned(logical uint64) bool { return c.poisoned[logical] }

// persistLine records what a metadata line's writeback made durable. Only
// address-mapping and inverted-hash lines carry recoverable state (mappings,
// counters, fingerprints); hash-table and FSM lines are reconstructed from
// those during the recovery walk, and tree-region lines are timing-only.
func (c *Controller) persistLine(line uint64) {
	L := c.layout
	switch {
	case line >= L.AddrMapBase && line < L.InvHashBase:
		first := (line - L.AddrMapBase) * dedup.AddrMapEntriesPerLine
		end := first + dedup.AddrMapEntriesPerLine
		if end > L.DataLines {
			end = L.DataLines
		}
		for a := first; a < end; a++ {
			loc, ok := c.tables.LocationOf(a)
			if !ok {
				delete(c.pReal, a)
				continue
			}
			c.pReal[a] = pMapping{loc: loc, tag: c.ctrs.Get(loc)}
			if loc == a {
				// Own-slot line: its counter is colocated in this entry
				// (Section III-C), so it persists with the mapping.
				c.pCtr[a] = c.ctrs.Get(a)
			}
		}
	case line >= L.InvHashBase && line < L.HashBase:
		first := (line - L.InvHashBase) * dedup.InvHashEntriesPerLine
		end := first + dedup.InvHashEntriesPerLine
		if end > L.DataLines {
			end = L.DataLines
		}
		for loc := first; loc < end; loc++ {
			h, live := c.tables.HashOf(loc)
			if !live {
				delete(c.pMeta, loc)
				continue
			}
			c.pMeta[loc] = dedup.LocationMeta{Hash: h, IsZero: c.tables.IsZeroLocation(loc)}
			// Displaced and dedup-target counters are colocated here.
			c.pCtr[loc] = c.ctrs.Get(loc)
		}
	}
}

// Crash models an unclean power loss at the current instant and returns a
// recovered controller rebuilt purely from non-volatile state: the data
// arrays (including the device's fault bookkeeping), the persisted metadata
// entries, and — when integrity is enabled — the on-chip tree root. Dirty
// metadata-cache lines are lost. Recovery is treated as instantaneous in
// simulated time (the scrub runs at boot, off any request's critical path).
//
// The recovered controller's dedup tables always satisfy CheckInvariants;
// every logical line whose data could not be recovered is poisoned, so
// subsequent reads return a detected-corruption error, never silent wrong
// data. Requires Options.TrackPersist.
func (c *Controller) Crash() (*Controller, *fault.RecoveryReport, error) {
	if !c.track {
		return nil, nil, errors.New("core: crash recovery requires Options.TrackPersist")
	}
	rep := &fault.RecoveryReport{}
	for _, cache := range c.MetaCaches() {
		rep.DirtyMetaLines += len(cache.DirtyBlocks())
	}
	if c.treeCache != nil {
		rep.DirtyMetaLines += len(c.treeCache.DirtyBlocks())
	}

	// Carry the non-volatile arrays (contents, wear, fault state) across.
	var buf bytes.Buffer
	if err := c.dev.SaveContents(&buf); err != nil {
		return nil, nil, fmt.Errorf("core: snapshotting arrays at crash: %w", err)
	}
	nc := New(c.opts)
	if err := nc.dev.LoadContents(&buf); err != nil {
		return nil, nil, fmt.Errorf("core: restoring arrays after crash: %w", err)
	}

	// Counters recover to their last persisted values.
	for _, a := range sortedKeys(c.pCtr) {
		nc.ctrs.Set(a, c.pCtr[a])
	}

	poison := make(map[uint64]bool)

	// Lines already poisoned before the crash (an earlier recovery, a failed
	// write) stay lost across it: only a successful rewrite clears the mark,
	// and none happened.
	for _, a := range sortedKeys(c.poisoned) {
		poison[a] = true
	}

	// Verify every location the persisted mappings reference: decrypt its
	// ciphertext under the persisted counter and check the persisted
	// fingerprint and zero flag; with integrity enabled, also verify against
	// the crash-time tree (its root is on-chip and survives). A location
	// whose checks fail diverged — its counter or data writeback raced the
	// crash — and no mapping to it can be honoured.
	locSeen := make(map[uint64]bool)
	var locs []uint64
	for _, a := range sortedKeys(c.pReal) {
		if l := c.pReal[a].loc; !locSeen[l] {
			locSeen[l] = true
			locs = append(locs, l)
		}
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	verified := make(map[uint64]dedup.LocationMeta, len(locs))
	plain := make([]byte, config.LineSize)
	for _, loc := range locs {
		meta, ok := c.pMeta[loc]
		if !ok {
			continue // never persisted: mappings to it dangle
		}
		pctr := c.pCtr[loc]
		ct := nc.dev.Peek(loc)
		nc.enc.DecryptLine(plain, ct, loc, pctr)
		valid := hashes.CRC32(plain)&c.hashMask == meta.Hash &&
			config.IsZeroLine(plain) == meta.IsZero
		if valid && c.tree != nil {
			valid = c.tree.Verify(loc, c.tree.LeafDigest(loc, pctr, ct))
		}
		if !valid {
			rep.DivergentLocations++
			continue
		}
		verified[loc] = meta
	}

	// Classify the persisted mappings. A mapping whose generation tag does
	// not match the location's persisted counter was superseded before the
	// crash (the location was freed and rewritten); one referencing an
	// unverified location dangles. Either way the logical line's data is
	// unreachable and the line is poisoned.
	var recovered []dedup.RecoveredMapping
	for _, a := range sortedKeys(c.pReal) {
		p := c.pReal[a]
		if _, ok := verified[p.loc]; !ok {
			rep.DanglingMappings++
			poison[a] = true
			continue
		}
		if p.tag != c.pCtr[p.loc] {
			rep.StaleMappings++
			poison[a] = true
			continue
		}
		recovered = append(recovered, dedup.RecoveredMapping{Logical: a, Location: p.loc})
	}

	// Current mappings that never reached NVM in their latest form lose the
	// latest data; when no older persisted mapping exists either, the line
	// is unreachable entirely and poisoned.
	for _, m := range c.tables.Mappings() {
		p, ok := c.pReal[m.Logical]
		if !ok {
			rep.LostMappings++
			poison[m.Logical] = true
			continue
		}
		if p.loc != m.Location || p.tag != c.ctrs.Get(m.Location) {
			rep.LostMappings++ // recovers older, crash-consistent data
		}
	}

	// Rebuild the dedup tables from the survivors, recomputing reference
	// counts; over-saturated excess mappings are dropped and poisoned.
	tables, dropped, err := dedup.Rebuild(c.layout.DataLines, c.cfg.Dedup.MaxReference, recovered, verified)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range dropped {
		poison[a] = true
	}
	nc.tables = tables
	rep.RecoveredMappings = len(recovered) - len(dropped)

	// Refcount mismatches: recovered counts versus the crash-time in-memory
	// counts, per referenced location.
	for _, loc := range locs {
		if _, ok := verified[loc]; !ok {
			continue
		}
		if nc.tables.Refs(loc) != c.tables.Refs(loc) {
			rep.RefcountMismatches++
		}
		if nc.tables.Refs(loc) > 0 {
			rep.LiveLocations++
		}
	}

	// Rebuild the integrity tree over exactly the recovered live state.
	if nc.tree != nil {
		for _, loc := range locs {
			if nc.tables.Refs(loc) == 0 {
				continue
			}
			nc.tree.Update(loc, nc.tree.LeafDigest(loc, nc.ctrs.Get(loc), nc.dev.Peek(loc)))
		}
	}

	// The scrub rewrites the metadata region consistently, so the recovered
	// controller's persistence shadow is exactly its recovered state.
	for a, v := range c.pCtr {
		nc.pCtr[a] = v
	}
	for _, m := range nc.tables.Mappings() {
		nc.pReal[m.Logical] = pMapping{loc: m.Location, tag: nc.ctrs.Get(m.Location)}
	}
	for loc, meta := range verified {
		nc.pMeta[loc] = meta
	}
	if len(poison) > 0 {
		nc.poisoned = poison
	}
	rep.PoisonedLines = len(poison)
	return nc, rep, nil
}

// sortedKeys returns the map's keys in ascending order — recovery iterates
// maps only through this, keeping every scrub deterministic.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

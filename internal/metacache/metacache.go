// Package metacache models the on-chip write-back metadata cache that secure
// NVM controllers already carry for encryption counters (Section III-B1) and
// that DeWrite reuses for deduplication metadata.
//
// The cache is set-associative with true-LRU replacement, tracked at the
// granularity of one metadata block (one NVM line, 256 B). It stores presence
// and dirtiness only: the functional contents of the metadata tables live in
// the dedup structures, while this model decides whether an access hits
// on-chip or must pay an NVM round trip, and which dirty metadata lines get
// written back on eviction — the "on average 2.6 % extra writes" effect from
// Section IV-B.
package metacache

import (
	"fmt"
	"sort"

	"dewrite/internal/attr"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// Cache is one partition of the metadata cache (hash, address mapping,
// inverted hash or FSM). Not safe for concurrent use.
type Cache struct {
	name    string
	entries []entry // set s holds entries[s*ways : (s+1)*ways]
	nsets   uint64
	ways    int
	tick    uint64

	hits       stats.Counter
	misses     stats.Counter
	writebacks stats.Counter
	inserts    stats.Counter
}

type entry struct {
	block uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// New returns a cache with the given capacity, block size and associativity.
// The set count is capacity / (blockBytes * ways) and must be at least 1.
func New(name string, capacityBytes, blockBytes, ways int) *Cache {
	if capacityBytes <= 0 || blockBytes <= 0 || ways <= 0 {
		panic("metacache: non-positive geometry")
	}
	blocks := capacityBytes / blockBytes
	if blocks < ways {
		panic(fmt.Sprintf("metacache: %s: capacity %dB holds %d blocks, fewer than %d ways",
			name, capacityBytes, blocks, ways))
	}
	nsets := blocks / ways
	return &Cache{name: name, entries: make([]entry, nsets*ways), nsets: uint64(nsets), ways: ways}
}

// Name returns the partition name given at construction.
func (c *Cache) Name() string { return c.name }

// Blocks returns the total number of blocks the cache can hold.
func (c *Cache) Blocks() int { return len(c.entries) }

func (c *Cache) set(block uint64) []entry {
	s := int(block%c.nsets) * c.ways
	return c.entries[s : s+c.ways : s+c.ways]
}

// Lookup probes for block without modifying miss statistics side effects
// beyond the hit/miss counters. On a hit the entry is touched (LRU) and, if
// write is set, marked dirty. It reports whether the block was present.
func (c *Cache) Lookup(block uint64, write bool) bool {
	c.tick++
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			set[i].used = c.tick
			if write {
				set[i].dirty = true
			}
			c.hits.Inc()
			return true
		}
	}
	c.misses.Inc()
	return false
}

// Contains reports whether block is cached, without touching LRU state or
// statistics.
func (c *Cache) Contains(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			return true
		}
	}
	return false
}

// Invalidate drops block if it is cached, without touching LRU state or
// statistics, and reports whether it was present and whether it was dirty.
func (c *Cache) Invalidate(block uint64) (dirty, present bool) {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].block == block {
			dirty = set[i].dirty
			set[i] = entry{}
			return dirty, true
		}
	}
	return false, false
}

// Eviction describes a block displaced by an Insert.
type Eviction struct {
	Block uint64
	Dirty bool
}

// Insert places block into the cache (after a miss was serviced from NVM)
// and returns the eviction it caused, if any. Inserting a block that is
// already present just touches it (and ORs in dirty).
func (c *Cache) Insert(block uint64, dirty bool) (Eviction, bool) {
	c.tick++
	c.inserts.Inc()
	set := c.set(block)
	// Already present: refresh.
	for i := range set {
		if set[i].valid && set[i].block == block {
			set[i].used = c.tick
			set[i].dirty = set[i].dirty || dirty
			return Eviction{}, false
		}
	}
	// Free way.
	for i := range set {
		if !set[i].valid {
			set[i] = entry{block: block, valid: true, dirty: dirty, used: c.tick}
			return Eviction{}, false
		}
	}
	// Evict LRU.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	ev := Eviction{Block: set[victim].block, Dirty: set[victim].dirty}
	if ev.Dirty {
		c.writebacks.Inc()
	}
	set[victim] = entry{block: block, valid: true, dirty: dirty, used: c.tick}
	return ev, true
}

// PrefetchLines converts a prefetch granularity in table entries to whole
// metadata lines of perLine entries, at least one.
func PrefetchLines(entries, perLine int) int {
	n := entries / perLine
	if n < 1 {
		n = 1
	}
	return n
}

// Fill services a demand miss on block: it inserts the block, dirty only on
// a write, then the prefetch-1 blocks after it, clean, stopping at the first
// block at or above limit. A prefetch below 1 fills the demand block alone.
// When installed is non-nil it is called after each insert with the insert's
// index (0 is the demand block), the block and the eviction it caused, so the
// caller can issue the prefetch read and the dirty writeback in order.
func (c *Cache) Fill(block uint64, write bool, prefetch int, limit uint64, installed func(i int, block uint64, ev Eviction, evicted bool)) {
	if prefetch < 1 {
		prefetch = 1
	}
	for i := 0; i < prefetch; i++ {
		b := block + uint64(i)
		if b >= limit {
			return
		}
		ev, evicted := c.Insert(b, write && i == 0)
		if installed != nil {
			installed(i, b, ev, evicted)
		}
	}
}

// Probe is one recorded demand access to a cache: the block and whether the
// access wrote it.
type Probe struct {
	Block uint64
	Write bool
}

// Replay drives recorded probes through the cache the way the controllers
// drive it: a Lookup per probe and, on a miss, a Fill of prefetch blocks
// below limit. The statistics it leaves equal those of the recorded run when
// the cache's hits and misses did not change which probes followed.
func (c *Cache) Replay(probes []Probe, prefetch int, limit uint64) {
	for _, p := range probes {
		if !c.Lookup(p.Block, p.Write) {
			c.Fill(p.Block, p.Write, prefetch, limit, nil)
		}
	}
}

// FlushAll marks every cached block clean and returns the blocks that were
// dirty, modelling a full metadata writeback (e.g. at power-down).
func (c *Cache) FlushAll() []uint64 {
	var dirty []uint64
	for i := range c.entries {
		if e := &c.entries[i]; e.valid && e.dirty {
			dirty = append(dirty, e.block)
			e.dirty = false
		}
	}
	c.writebacks.Add(uint64(len(dirty)))
	return dirty
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Inserts    uint64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Writebacks: c.writebacks.Value(),
		Inserts:    c.inserts.Value(),
	}
}

// HitRate returns hits / (hits + misses), 0 when unused.
func (s Stats) HitRate() float64 { return stats.Ratio(s.Hits, s.Hits+s.Misses) }

// HitRate returns the cache's hits / (hits + misses), 0 when unused.
func (c *Cache) HitRate() float64 { return c.Stats().HitRate() }

// Attr attributes one access to this partition, covering [start, end], to
// the open sampled request: a hit is a lookup, a miss is the NVM fill of a
// meta-miss. The cache has no clock of its own, so the caller that timed the
// access supplies the boundaries. Nil-safe on rec.
func (c *Cache) Attr(rec *attr.Recorder, hit bool, start, end units.Time) {
	p := attr.PhaseMetaMiss
	if hit {
		p = attr.PhaseLookup
	}
	rec.Phase(p, start, end)
}

// SampleEpoch adds this partition's cumulative hit/miss counters into the
// epoch's metadata totals — additive, so a controller with several partitions
// sums them all into one epoch.
func (c *Cache) SampleEpoch(e *timeline.Epoch, _ units.Time) {
	e.MetaHits += c.hits.Value()
	e.MetaMisses += c.misses.Value()
}

// DirtyBlocks returns the blocks currently cached dirty, sorted, without
// mutating any cache state — the crash model's census of metadata updates
// that never reached NVM.
func (c *Cache) DirtyBlocks() []uint64 {
	var dirty []uint64
	for _, e := range c.entries {
		if e.valid && e.dirty {
			dirty = append(dirty, e.block)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return dirty
}

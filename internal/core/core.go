// Package core implements the DeWrite controller, the paper's contribution:
// an NVM memory controller that eliminates duplicate cache-line writes with
// light-weight in-line deduplication and integrates the dedup pipeline with
// counter-mode encryption.
//
// The write path (Section III):
//
//  1. The 3-bit history-window predictor guesses whether the incoming line is
//     a duplicate. Predicted non-duplicates start AES encryption in parallel
//     with detection (the "parallel way"); predicted duplicates defer AES
//     until detection rules out a duplicate (the "direct way"), saving the
//     encryption energy.
//  2. Detection computes the CRC-32 of the line (15 ns) and probes the hash
//     table through the metadata cache. A cache miss normally costs an NVM
//     round trip, but the prediction-based NVM access (PNA) rule skips the
//     in-NVM probe when the predictor says non-duplicate, trading a small
//     number of missed duplicates for detection latency.
//  3. A fingerprint match is confirmed by reading the candidate line (75 ns,
//     exploiting the read/write asymmetry of NVM) and byte-comparing. On
//     confirmation the write is cancelled: only the address-mapping,
//     reference-count and free-space metadata change.
//  4. Otherwise the line is placed (own slot if free, else a free location
//     from the FSM table), encrypted under (location, counter), and written.
//
// The read path resolves the logical address through the address-mapping
// table, fetches the per-line counter from its colocated slot, and overlaps
// OTP generation with the NVM array read.
package core

import (
	"bytes"
	"fmt"

	"dewrite/internal/attr"
	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/dedup"
	"dewrite/internal/fault"
	"dewrite/internal/hashes"
	"dewrite/internal/integrity"
	"dewrite/internal/metacache"
	"dewrite/internal/nvm"
	"dewrite/internal/predict"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// Mode selects how duplication detection and encryption interleave on the
// write path (Figure 3 of the paper).
type Mode int

const (
	// ModeDeWrite predicts per write: parallel for predicted non-duplicates,
	// direct for predicted duplicates. This is the paper's scheme.
	ModeDeWrite Mode = iota
	// ModeDirect always detects first and encrypts after (Figure 3a).
	ModeDirect
	// ModeParallel always encrypts concurrently with detection (Figure 3b),
	// discarding the ciphertext when a duplicate is found.
	ModeParallel
)

// String returns the mode's display name.
func (m Mode) String() string {
	switch m {
	case ModeDeWrite:
		return "DeWrite"
	case ModeDirect:
		return "Direct"
	case ModeParallel:
		return "Parallel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PersistMode selects how deduplication/encryption metadata survives a
// power failure (the Section V discussion: Silent Shredder uses a
// battery-backed cache, Liu et al. add explicit write-backs, SecPM writes
// counters through).
type PersistMode int

const (
	// PersistBatteryBacked models a battery-backed (or non-volatile)
	// metadata cache: dirty metadata only reaches NVM on eviction. This is
	// the paper's default assumption.
	PersistBatteryBacked PersistMode = iota
	// PersistWriteThrough writes every metadata update to NVM immediately
	// (SecPM-style): crash consistent without a battery, at the cost of
	// extra metadata write traffic off the critical path.
	PersistWriteThrough
)

// String returns the mode's display name.
func (p PersistMode) String() string {
	switch p {
	case PersistBatteryBacked:
		return "battery-backed"
	case PersistWriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("PersistMode(%d)", int(p))
	}
}

// Options configures a Controller.
type Options struct {
	// DataLines is the number of 256 B logical lines the memory exposes.
	DataLines uint64
	// Config is the machine description; zero-value fields take defaults.
	Config config.Config
	// Mode selects the detection/encryption interleaving. Default ModeDeWrite.
	Mode Mode
	// Persist selects the metadata persistence scheme. Default
	// PersistBatteryBacked (the paper's assumption).
	Persist PersistMode
	// Integrity enables the Merkle integrity tree over the data lines (an
	// extension beyond the paper's confidentiality-only threat model).
	// Reads verify their line's path; unique writes update it; eliminated
	// duplicate writes need no tree maintenance at all.
	Integrity bool
	// Faults configures deterministic device-level fault injection (cell
	// wear-out, transient read errors, spare-region degradation). The zero
	// value disables injection.
	Faults fault.Config
	// TrackPersist maintains the crash-consistency shadow — which metadata
	// entries have actually reached NVM — that Crash() needs. Off by default
	// because the shadow bookkeeping runs on every metadata writeback.
	TrackPersist bool
}

// Controller is a DeWrite secure-NVM memory controller. Not safe for
// concurrent use; the simulator is single-threaded over simulated time.
type Controller struct {
	cfg     config.Config
	opts    Options // as passed to New, for crash-time reconstruction
	mode    Mode
	persist PersistMode
	dev     *nvm.Device
	tables  *dedup.Tables
	layout  dedup.Layout
	enc     *cme.Engine
	ctrs    *cme.CounterStore
	pred    *predict.Predictor

	hashCache *metacache.Cache
	addrCache *metacache.Cache
	invCache  *metacache.Cache
	fsmCache  *metacache.Cache

	// Attribution recorder; nil when attribution is off (the nil-safe
	// contract keeps every instrumented site a single branch on the hot path).
	rec *attr.Recorder

	// Optional integrity tree (nil when disabled).
	tree        *integrity.Tree
	treeCache   *metacache.Cache
	treeBase    uint64 // first NVM line of the tree-node region
	treeLines   uint64
	treeUpdates stats.Counter
	treeChecks  stats.Counter
	treeFailed  stats.Counter

	// Prefetch widths in metadata lines, derived from the configured
	// prefetch granularity in entries (Section IV-E2 sweeps this).
	pfAddr int
	pfInv  int
	pfFSM  int

	// hashMask truncates fingerprints to the configured width (the hash
	// width ablation: narrower fingerprints shrink the hash table but raise
	// the collision-triggered verify-read rate).
	hashMask uint32

	// Crash-consistency shadow (nil unless Options.TrackPersist): exactly
	// which metadata entries have reached NVM, updated at writeback time.
	// pReal carries a generation tag — the target location's counter at map
	// time — so recovery can detect persisted mappings whose location was
	// since rewritten. pCtr and pMeta mirror the persisted counter and
	// inverted-hash (fingerprint + zero flag) entries per location.
	track bool
	pReal map[uint64]pMapping
	pCtr  map[uint64]uint64
	pMeta map[uint64]dedup.LocationMeta

	// poisoned holds logical lines whose data is known lost (crash recovery
	// or exhausted device): reads return a detected-corruption error instead
	// of silent wrong data, and a fresh write clears the mark. nil until
	// something poisons a line, so the hot path pays one len check.
	poisoned map[uint64]bool

	// Per-controller scratch lines keep the request hot path allocation-free.
	// The controller is single-threaded (see the type comment), so one set
	// suffices: lineScratch holds raw device lines, plainScratch decrypted
	// candidates, ctScratch outgoing ciphertext (and, before that, the copy
	// of the incoming line that is fingerprinted).
	lineScratch  [config.LineSize]byte
	plainScratch [config.LineSize]byte
	ctScratch    [config.LineSize]byte

	// Statistics.
	writes        stats.Counter // CPU write requests
	reads         stats.Counter // CPU read requests
	dupEliminated stats.Counter // writes cancelled by dedup
	missedByPNA   stats.Counter // duplicates written because PNA skipped the probe
	missedBySat   stats.Counter // duplicates written due to refcount saturation
	aesLineOps    stats.Counter // counter-mode line encryptions performed
	aesWasted     stats.Counter // encryptions whose result was discarded
	aesMetaOps    stats.Counter // direct (de/en)cryptions of metadata lines
	crcOps        stats.Counter
	compareOps    stats.Counter
	metaNVMReads  stats.Counter
	metaNVMWrites stats.Counter
	writeRetries  stats.Counter // placements redone after a device write failure
	failedWrites  stats.Counter // writes lost entirely (line poisoned)
	poisonedReads stats.Counter // reads answered with a detected-corruption error
	writeLat      stats.Latency
	readLat       stats.Latency

	// meta records the partitions' demand probes; nil unless RecordMeta.
	// It sits last so that the fields above, the scratch lines among them,
	// keep their offsets and cache-line alignment.
	meta *MetaTrace
}

// pMapping is one persisted address-mapping entry: the location and the
// generation tag (the location's counter when the mapping was persisted).
type pMapping struct {
	loc, tag uint64
}

// memoryKey is every controller's 16-byte memory-encryption key.
var memoryKey = []byte("dewrite-sim-key!")

// New returns a controller over a fresh NVM device sized to hold DataLines
// data lines plus the metadata region.
func New(opts Options) *Controller {
	if opts.DataLines == 0 {
		panic("core: zero DataLines")
	}
	cfg := opts.Config
	if cfg.Timing == (config.Timing{}) {
		cfg = config.Default()
	}
	layout := dedup.NewLayout(opts.DataLines)
	// The device inherits the configured organization (banks, rows,
	// channels); only the capacity is resized to data + metadata (+ the
	// integrity-tree node region when enabled).
	geom := cfg.NVM
	totalLines := layout.TotalLines
	var tree *integrity.Tree
	var treeLines uint64
	if opts.Integrity {
		tree = integrity.New(opts.DataLines, memoryKey)
		// 8-byte digests, 32 per NVM line; every level lives in the region.
		var nodes uint64
		n := opts.DataLines
		for {
			nodes += n
			if n == 1 {
				break
			}
			n = (n + integrity.Arity - 1) / integrity.Arity
		}
		treeLines = (nodes + treeNodesPerLine - 1) / treeNodesPerLine
		totalLines += treeLines
	}
	geom.CapacityBytes = totalLines * config.LineSize
	mc := cfg.MetaCache
	c := &Controller{
		cfg:      cfg,
		mode:     opts.Mode,
		persist:  opts.Persist,
		dev:      nvm.New(geom, cfg.Timing, cfg.Energy),
		tables:   dedup.NewTables(opts.DataLines, cfg.Dedup.MaxReference),
		layout:   layout,
		enc:      cme.MustNewEngine(memoryKey),
		ctrs:     cme.NewCounterStore(opts.DataLines),
		pred:     predict.New(cfg.Dedup.HistoryBits),
		hashMask: hashMaskFor(cfg.Dedup.HashSizeBits),
	}
	c.hashCache, _ = newPartition(mc, 0)
	c.addrCache, c.pfAddr = newPartition(mc, 1)
	c.invCache, c.pfInv = newPartition(mc, 2)
	c.fsmCache, c.pfFSM = newPartition(mc, 3)
	if opts.Integrity {
		c.tree = tree
		c.treeBase = layout.TotalLines
		c.treeLines = treeLines
		c.treeCache = metacache.New("tree", mc.TreeBytes, mc.BlockBytes, mc.Ways)
	}
	c.opts = opts
	if opts.Faults.Enabled() {
		c.dev.EnableFaults(opts.Faults)
	}
	if opts.TrackPersist {
		c.track = true
		c.pReal = make(map[uint64]pMapping)
		c.pCtr = make(map[uint64]uint64)
		c.pMeta = make(map[uint64]dedup.LocationMeta)
	}
	return c
}

// treeNodesPerLine is how many 8-byte tree nodes pack into one NVM line.
const treeNodesPerLine = config.LineSize / integrity.DigestSize

// treeAccess models touching the integrity-tree path: one tree-cache access
// per level (NVM fill on miss) plus one MAC computation per level.
func (c *Controller) treeAccess(now units.Time, leaf uint64, write bool) units.Time {
	done := now
	idx := leaf
	var levelBase uint64
	n := c.layout.DataLines
	for lvl := 0; lvl < c.tree.Levels(); lvl++ {
		nodeLine := c.treeBase + (levelBase+idx)/treeNodesPerLine
		if nodeLine >= c.treeBase+c.treeLines {
			nodeLine = c.treeBase + c.treeLines - 1
		}
		if c.treeCache.Lookup(nodeLine, write) {
			done = done.Add(c.cfg.Timing.MetaCache)
		} else {
			// Timing-only read: the tree nodes' functional contents live in
			// the integrity.Tree structure.
			done = c.dev.ReadBypassInto(done, nodeLine, nil)
			c.metaNVMReads.Inc()
			ev, evicted := c.treeCache.Insert(nodeLine, write)
			if evicted && ev.Dirty {
				c.writebackMeta(done, ev.Block)
			}
		}
		done = done.Add(c.cfg.Timing.MAC)
		levelBase += n
		idx /= integrity.Arity
		n = (n + integrity.Arity - 1) / integrity.Arity
	}
	return done
}

// verifyRead checks the integrity path for the line just read and reports
// whether it verified; a failure indicates tampering or device corruption
// (counted; surfaced to callers via ReadVerified).
func (c *Controller) verifyRead(now units.Time, loc uint64, ct []byte) (units.Time, bool) {
	if c.tree == nil {
		return now, true
	}
	d := c.tree.LeafDigest(loc, c.ctrs.Get(loc), ct)
	ok := c.tree.Verify(loc, d)
	if !ok {
		c.treeFailed.Inc()
	}
	c.treeChecks.Inc()
	return c.treeAccess(now, loc, false), ok
}

// updateTree refreshes the integrity path after a unique write.
func (c *Controller) updateTree(now units.Time, loc, counter uint64, ct []byte) units.Time {
	if c.tree == nil {
		return now
	}
	c.tree.Update(loc, c.tree.LeafDigest(loc, counter, ct))
	c.treeUpdates.Inc()
	return c.treeAccess(now, loc, true)
}

// Fingerprint returns the controller's fingerprint of a line: its CRC-32
// truncated to the configured hash width. Callers outside the controller
// (the cross-shard directory) use it to share the controller's equivalence
// classes.
func (c *Controller) Fingerprint(line []byte) uint32 { return hashes.CRC32(line) & c.hashMask }

// hashMaskFor returns the fingerprint truncation mask for a width in bits.
func hashMaskFor(bits int) uint32 {
	if bits <= 0 || bits >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(bits)) - 1
}

// SetAttr attaches (or, with nil, detaches) the attribution recorder,
// cascading it to the device and the crypto engine.
// Attribution only observes timestamps the controller already computed and
// never changes simulated behavior.
func (c *Controller) SetAttr(rec *attr.Recorder) {
	c.rec = rec
	c.dev.SetAttr(rec)
	c.enc.SetAttr(rec)
}

// SampleEpoch implements timeline.Sampler: it fills one epoch with the
// controller's cumulative scheme counters, all metadata-cache partitions, the
// dedup-table gauges, and the device state. The wear distribution is bounded
// to the data-line region so metadata writebacks don't skew the data-wear
// curves the endurance comparison plots.
func (c *Controller) SampleEpoch(e *timeline.Epoch, now units.Time) {
	e.Writes = c.writes.Value()
	e.DupEliminated = c.dupEliminated.Value()
	for _, mc := range c.MetaCaches() {
		mc.SampleEpoch(e, now)
	}
	if c.treeCache != nil {
		c.treeCache.SampleEpoch(e, now)
	}
	c.tables.SampleEpoch(e, now)
	c.dev.SampleEpoch(e, now, c.layout.DataLines)
}

// Device exposes the underlying NVM device for statistics.
func (c *Controller) Device() *nvm.Device { return c.dev }

// Tables exposes the dedup metadata for statistics.
func (c *Controller) Tables() *dedup.Tables { return c.tables }

// MetaCaches returns the four metadata-cache partitions
// (hash, address-mapping, inverted-hash, FSM).
func (c *Controller) MetaCaches() [4]*metacache.Cache {
	return [4]*metacache.Cache{c.hashCache, c.addrCache, c.invCache, c.fsmCache}
}

func (c *Controller) checkLine(data []byte) {
	if len(data) != config.LineSize {
		panic(fmt.Sprintf("core: line of %d bytes, want %d", len(data), config.LineSize))
	}
}

// metaAccess models one access to a metadata table entry through its
// partition cache and returns the time at which the entry is available.
// On a miss it reads the metadata line from NVM (direct-encrypted, so the
// AES decryption cannot overlap the array access), prefetches the following
// prefetch-1 lines, and inserts them; dirty evictions are written back to
// NVM off the critical path but still occupy banks and count as writes.
// While a MetaTrace records, the access is appended to it first.
func (c *Controller) metaAccess(now units.Time, cache *metacache.Cache, line uint64, write bool, prefetch int) units.Time {
	if c.meta != nil {
		c.recordMeta(cache, line, write)
	}
	if cache.Lookup(line, write) {
		done := now.Add(c.cfg.Timing.MetaCache)
		cache.Attr(c.rec, true, now, done)
		return done
	}
	// Demand miss: NVM read + direct decryption. Timing-only — the
	// functional metadata lives in the dedup tables.
	done := c.dev.ReadBypassInto(now, line, nil)
	c.metaNVMReads.Inc()
	done = done.Add(c.cfg.Timing.AESLine)
	c.aesMetaOps.Inc()
	c.dev.AddEnergy(c.cfg.Energy.AESBlock * config.AESBlocksPerLine)

	cache.Fill(line, write, prefetch, c.layout.TotalLines, func(i int, block uint64, ev metacache.Eviction, evicted bool) {
		if i > 0 {
			// Prefetched neighbours stream in behind the demand line: they
			// occupy the bank (and are row hits) but do not extend the
			// demand access's critical path.
			c.dev.ReadBypassInto(done, block, nil)
			c.metaNVMReads.Inc()
		}
		if evicted && ev.Dirty {
			c.writebackMeta(done, ev.Block)
		}
	})
	filled := done.Add(c.cfg.Timing.MetaCache)
	cache.Attr(c.rec, false, now, filled)
	return filled
}

// writebackMeta writes a dirty metadata line back to NVM. The writeback
// happens off the demand path (buffered), but it occupies the bank and is
// direct-encrypted first.
func (c *Controller) writebackMeta(now units.Time, line uint64) {
	c.dev.WriteTagged(now, line, zeroLine[:], attr.CauseMetadata)
	c.metaNVMWrites.Inc()
	c.aesMetaOps.Inc()
	c.dev.AddEnergy(c.cfg.Energy.AESBlock * config.AESBlocksPerLine)
	if c.track {
		c.persistLine(line)
	}
}

var zeroLine [config.LineSize]byte

// metaUpdate is a write access to a metadata entry: write-allocate through
// the partition cache. Under write-through persistence the updated line is
// also written to NVM immediately (buffered, off the critical path), so a
// crash never loses dedup or counter state.
func (c *Controller) metaUpdate(now units.Time, cache *metacache.Cache, line uint64, prefetch int) units.Time {
	if c.persist == PersistWriteThrough {
		// The NVM copy is updated immediately, so the cached copy stays
		// clean and evictions never need a write-back.
		done := c.metaAccess(now, cache, line, false, prefetch)
		c.writebackMeta(done, line)
		return done
	}
	return c.metaAccess(now, cache, line, true, prefetch)
}

// Write performs one timed cache-line write of data to the logical line
// address and returns the completion time. Writes are on the critical path
// of execution (persistent-memory ordering), so the caller stalls until the
// returned time.
func (c *Controller) Write(now units.Time, logical uint64, data []byte) units.Time {
	c.checkLine(data)
	c.writes.Inc()
	if len(c.poisoned) != 0 {
		// A fresh write supersedes whatever data was lost; writeUnique
		// re-poisons if this write itself cannot be persisted.
		delete(c.poisoned, logical)
	}
	t := c.cfg.Timing

	predictedDup := c.pred.Predict()
	parallelAES := c.mode == ModeParallel || (c.mode == ModeDeWrite && !predictedDup)

	// CRC-32 fingerprint (always computed; the detection front end).
	detect := now.Add(t.CRC32)
	c.crcOps.Inc()
	c.dev.AddEnergy(c.cfg.Energy.CRC32Line)
	c.rec.Phase(attr.PhaseHash, now, detect)
	c.rec.Op(attr.OpCRC)
	// The stdlib CRC-32 lets its argument escape; fingerprinting a copy in
	// controller-owned scratch keeps a caller's stack line off the heap.
	copy(c.ctScratch[:], data)
	h := c.Fingerprint(c.ctScratch[:])

	// Hash-table probe through the metadata cache, with the PNA rule on a
	// miss: only a predicted-duplicate justifies the in-NVM probe.
	hashLine := c.layout.HashLine(h)
	var candidates []uint64
	probed := false
	if c.hashCache.Lookup(hashLine, false) {
		c.rec.Phase(attr.PhaseLookup, detect, detect.Add(t.MetaCache))
		detect = detect.Add(t.MetaCache)
		c.rec.Op(attr.OpProbe)
		candidates = c.tables.Candidates(h)
		probed = true
	} else if !c.cfg.Dedup.PNAEnabled || c.mode != ModeDeWrite || predictedDup {
		// In-NVM hash-table probe (and fill the cache). The PNA shortcut is
		// part of DeWrite's prediction machinery; the plain direct/parallel
		// ways always pay the in-NVM probe on a cache miss.
		detect = c.metaAccess(detect, c.hashCache, hashLine, false, 1)
		c.rec.Op(attr.OpProbe)
		candidates = c.tables.Candidates(h)
		probed = true
	} else {
		// PNA skip: treat as non-duplicate without the NVM probe. If it was
		// a duplicate after all, the write reduction is lost (Section IV-B's
		// ~1.5 % miss) — record it. The hardware made no probe, so
		// none is counted.
		if len(c.tables.Candidates(h)) > 0 {
			c.missedByPNA.Inc()
		}
	}

	// Confirm duplication: read each candidate and byte-compare. A matching
	// candidate whose reference count is saturated cannot absorb another
	// duplicate (Section III-B2), but a previous saturation fallback may
	// have stored an unsaturated copy of the same content later in the
	// chain, so the scan continues past saturated matches. The candidate
	// slice is valid until the tables change, and nothing in the scan
	// changes them.
	duplicate := false
	sawSaturated := false
	var target uint64
	incomingZero := config.IsZeroLine(data)
	if probed {
		for _, cand := range candidates {
			// The hash-table entry carries the reference count, so a
			// saturated candidate is skipped without reading its line —
			// unless it is the writer's own line (a silent store needs no
			// new reference).
			if !c.tables.Acceptable(cand) && !c.tables.IsSelfDuplicate(logical, cand) {
				sawSaturated = true
				continue
			}
			// Zero fast path: the hash entry flags the all-zero line and the
			// incoming line's zero-ness is a combinational check, so the
			// verify read is unnecessary (this subsumes Silent Shredder).
			if incomingZero && c.tables.IsZeroLocation(cand) {
				detect = detect.Add(t.Compare)
				c.compareOps.Inc()
				c.rec.Op(attr.OpCompare)
				duplicate = true
				target = cand
				break
			}
			if incomingZero != c.tables.IsZeroLocation(cand) {
				continue // a zero line cannot match a non-zero candidate
			}
			done := c.dev.ReadBypassInto(detect, cand, c.lineScratch[:])
			// Decrypt the candidate under its own (location, counter) pad;
			// OTP generation overlaps the array read when the counter is
			// cached, so it extends the path only past the read itself.
			ctrDone := c.metaAccess(detect, c.addrCache, c.layout.AddrMapLine(cand), false, c.pfAddr)
			otpDone := ctrDone.Add(t.AESLine)
			done = units.Max(done, otpDone).Add(t.XOR + t.Compare)
			c.compareOps.Inc()
			c.rec.Op(attr.OpCompare)
			c.dev.AddEnergy(c.cfg.Energy.CompareLine)
			c.enc.DecryptLine(c.plainScratch[:], c.lineScratch[:], cand, c.ctrs.Get(cand))
			c.rec.Phase(attr.PhaseVerify, detect, done)
			detect = done
			if !bytes.Equal(c.plainScratch[:], data) {
				c.tables.NoteCollision()
				continue
			}
			duplicate = true
			target = cand
			break
		}
	}
	if sawSaturated && !duplicate {
		c.tables.NoteSaturatedSkip()
		c.missedBySat.Inc()
	}

	var completed units.Time
	if duplicate {
		if parallelAES {
			// The speculative encryption already ran; its result is thrown
			// away but the energy is spent — the cost the prediction scheme
			// exists to avoid (Figure 20).
			c.aesLineOps.Inc()
			c.aesWasted.Inc()
			c.dev.AddEnergy(c.cfg.Energy.AESBlock * config.AESBlocksPerLine)
			c.rec.Phase(attr.PhaseEncrypt, now, now.Add(c.cfg.Timing.AESLine))
		}
		completed = c.writeDuplicate(detect, logical, target)
	} else {
		completed = c.writeUnique(now, detect, logical, data, h, parallelAES)
	}

	// Record the true outcome in the history window.
	c.pred.Observe(duplicate)
	if duplicate {
		c.dupEliminated.Inc()
	}
	c.writeLat.Observe(completed.Sub(now))
	return completed
}

// writeDuplicate cancels the data write and updates the mapping metadata.
func (c *Controller) writeDuplicate(detect units.Time, logical, target uint64) units.Time {
	// Capture pre-state to account the stale-metadata traffic.
	oldLoc, hadLoc := c.tables.LocationOf(logical)
	if hadLoc && oldLoc == target {
		// Silent store: the mapping already points at the matching data, so
		// no metadata changes at all — the write vanishes after detection.
		c.tables.MapDuplicate(logical, target)
		return detect
	}
	var staleHash uint32
	if hadLoc && c.tables.Refs(oldLoc) == 1 {
		staleHash, _ = c.tables.HashOf(oldLoc)
	}

	freed, didFree := c.tables.MapDuplicate(logical, target)

	// Address-mapping update for the written logical line.
	done := c.metaUpdate(detect, c.addrCache, c.layout.AddrMapLine(logical), c.pfAddr)
	// Reference-count bump lives in the hash table.
	done = c.metaUpdate(done, c.hashCache, c.layout.HashLine(mustHash(c.tables, target)), 1)
	if didFree {
		// Stale-hash cleaning and free-space update for the freed location.
		done = c.metaUpdate(done, c.hashCache, c.layout.HashLine(staleHash), 1)
		done = c.metaUpdate(done, c.invCache, c.layout.InvHashLine(freed), c.pfInv)
		done = c.metaUpdate(done, c.fsmCache, c.layout.FSMLine(freed), c.pfFSM)
	}
	return done
}

// writeUnique encrypts and writes the line, allocating a location and
// updating all four tables.
func (c *Controller) writeUnique(now, detect units.Time, logical uint64, data []byte, h uint32, parallelAES bool) units.Time {
	t := c.cfg.Timing

	// Capture pre-state for stale-metadata accounting. The release inside
	// PlaceUnique removes the old data's fingerprint whenever this logical
	// line held its last reference — including when the freed slot is
	// immediately re-chosen — so the stale-hash cleaning is accounted from
	// the pre-state, not from didFree.
	oldLoc, hadLoc := c.tables.LocationOf(logical)
	var staleHash uint32
	staleRemoved := false
	if hadLoc && c.tables.Refs(oldLoc) == 1 {
		staleHash, _ = c.tables.HashOf(oldLoc)
		staleRemoved = true
	}

	chosen, freed, didFree, placed := c.tables.TryPlaceUnique(logical, h)
	if !placed {
		// Retirements have consumed every location: the write has nowhere to
		// land. Poison the line; detection time was still spent.
		c.failedWrites.Inc()
		if c.poisoned == nil {
			c.poisoned = make(map[uint64]bool)
		}
		c.poisoned[logical] = true
		return detect
	}
	if config.IsZeroLine(data) {
		c.tables.SetZeroFlag(chosen)
	}
	counter := c.ctrs.Bump(chosen)

	// Encryption: in parallel mode AES started at request arrival; in direct
	// mode it starts once detection has ruled out a duplicate.
	encStart := detect
	if parallelAES {
		encStart = now
	}
	encDone := encStart.Add(t.AESLine)
	c.aesLineOps.Inc()
	c.dev.AddEnergy(c.cfg.Energy.AESBlock * config.AESBlocksPerLine)
	c.rec.Phase(attr.PhaseEncrypt, encStart, encDone)

	ct := c.ctScratch[:]
	c.enc.EncryptLine(ct, data, chosen, counter)

	// Metadata updates. The counter update is colocated: for a
	// non-deduplicated line it lands in the address-mapping entry just
	// touched, for a displaced line in the inverted-hash slot updated below,
	// so it costs no extra table access (Section III-C).
	done := units.Max(detect, encDone)
	done = c.metaUpdate(done, c.addrCache, c.layout.AddrMapLine(logical), c.pfAddr)
	if chosen != logical {
		// Displaced allocation: clear the chosen location's free flag.
		done = c.metaUpdate(done, c.fsmCache, c.layout.FSMLine(chosen), c.pfFSM)
	}
	done = c.metaUpdate(done, c.invCache, c.layout.InvHashLine(chosen), c.pfInv)
	done = c.metaUpdate(done, c.hashCache, c.layout.HashLine(h), 1)
	if staleRemoved {
		done = c.metaUpdate(done, c.hashCache, c.layout.HashLine(staleHash), 1)
	}
	if didFree {
		done = c.metaUpdate(done, c.invCache, c.layout.InvHashLine(freed), c.pfInv)
		done = c.metaUpdate(done, c.fsmCache, c.layout.FSMLine(freed), c.pfFSM)
	}

	// The array write, then (when enabled) the integrity-path update. A
	// write-verify failure the device could not absorb (ECP and spare region
	// exhausted) triggers relocation: retire the stuck location, re-place,
	// re-encrypt under the new location's counter, and redo the affected
	// metadata updates.
	done, ok := c.dev.WriteCheckedTagged(done, chosen, ct, attr.CauseUnique)
	for retries := 0; !ok && retries < maxPlaceRetries; retries++ {
		c.writeRetries.Inc()
		prev := chosen
		var placed bool
		chosen, placed = c.tables.RelocateStuck(logical)
		if !placed {
			break // allocation pool exhausted by retirements
		}
		if config.IsZeroLine(data) {
			c.tables.SetZeroFlag(chosen)
		}
		counter = c.ctrs.Bump(chosen)
		redo := done.Add(t.AESLine)
		c.aesLineOps.Inc()
		c.dev.AddEnergy(c.cfg.Energy.AESBlock * config.AESBlocksPerLine)
		c.rec.Phase(attr.PhaseEncrypt, done, redo)
		c.enc.EncryptLine(ct, data, chosen, counter)
		redo = c.metaUpdate(redo, c.addrCache, c.layout.AddrMapLine(logical), c.pfAddr)
		redo = c.metaUpdate(redo, c.fsmCache, c.layout.FSMLine(prev), c.pfFSM)
		if chosen != logical {
			redo = c.metaUpdate(redo, c.fsmCache, c.layout.FSMLine(chosen), c.pfFSM)
		}
		redo = c.metaUpdate(redo, c.invCache, c.layout.InvHashLine(prev), c.pfInv)
		redo = c.metaUpdate(redo, c.invCache, c.layout.InvHashLine(chosen), c.pfInv)
		redo = c.metaUpdate(redo, c.hashCache, c.layout.HashLine(h), 1)
		// The relocated placement is remap traffic: the demand data already
		// charged its unique write on the first (failed) placement attempt.
		done, ok = c.dev.WriteCheckedTagged(redo, chosen, ct, attr.CauseRemap)
	}
	if !ok {
		// The data never reached the array: poison the line so reads fail
		// detectably instead of returning stale or zero bytes.
		c.failedWrites.Inc()
		if c.poisoned == nil {
			c.poisoned = make(map[uint64]bool)
		}
		c.poisoned[logical] = true
		return done
	}
	return c.updateTree(done, chosen, counter, ct)
}

// maxPlaceRetries bounds how many stuck locations one write may retire
// before the controller gives up and poisons the logical line.
const maxPlaceRetries = 4

func mustHash(t *dedup.Tables, loc uint64) uint32 {
	h, ok := t.HashOf(loc)
	if !ok {
		panic(fmt.Sprintf("core: live location %#x has no hash", loc))
	}
	return h
}

// Read performs one timed cache-line read of the logical line address and
// returns the plaintext and the completion time. The returned slice is
// freshly allocated and owned by the caller; hot loops use ReadInto instead.
func (c *Controller) Read(now units.Time, logical uint64) ([]byte, units.Time) {
	out := make([]byte, config.LineSize)
	done := c.ReadInto(now, logical, out)
	return out, done
}

// ReadInto is Read without the per-call allocation: the plaintext is
// decrypted into dst, which must hold one line. A nil dst is a timing-only
// read: every timing step, counter, energy charge, fault draw and integrity
// check is as for a line, but the ciphertext is not copied out of the
// device (unless the integrity tree hashes it) and nothing is decrypted.
// Detected corruption (poisoned lines, integrity failures) is counted but
// not surfaced; callers that must distinguish it use ReadVerified.
func (c *Controller) ReadInto(now units.Time, logical uint64, dst []byte) units.Time {
	done, _ := c.readInto(now, logical, dst)
	return done
}

// ReadVerified is ReadInto with detected corruption surfaced: a poisoned
// line (data lost to a crash or an exhausted device) or an integrity-tree
// verification failure returns a non-nil error alongside the completion
// time. dst then holds zeros (poisoned) or the unverified plaintext
// (integrity failure). Never returns silent wrong data when the integrity
// tree is enabled.
func (c *Controller) ReadVerified(now units.Time, logical uint64, dst []byte) (units.Time, error) {
	return c.readInto(now, logical, dst)
}

func (c *Controller) readInto(now units.Time, logical uint64, dst []byte) (units.Time, error) {
	if logical >= c.layout.DataLines {
		panic(fmt.Sprintf("core: read of %#x beyond %d data lines", logical, c.layout.DataLines))
	}
	if dst != nil {
		c.checkLine(dst)
	}
	c.reads.Inc()
	t := c.cfg.Timing

	// Resolve the logical address through the address-mapping table. The
	// counter of a non-deduplicated line is colocated in the same entry.
	mapDone := c.metaAccess(now, c.addrCache, c.layout.AddrMapLine(logical), false, c.pfAddr)

	if len(c.poisoned) != 0 && c.poisoned[logical] {
		// Data known lost: the mapping lookup is the detection cost; the
		// caller gets zeros plus an explicit error, never stale bytes.
		c.poisonedReads.Inc()
		clear(dst)
		c.readLat.Observe(mapDone.Sub(now))
		return mapDone, fmt.Errorf("core: line %#x: %w", logical, ErrPoisoned)
	}

	loc, written := c.tables.LocationOf(logical)
	if !written {
		// Architecturally undefined read; the device still performs an array
		// read of the line's own slot and the simulator returns zeros.
		done := c.dev.ReadInto(mapDone, logical, nil)
		clear(dst)
		done = done.Add(t.XOR)
		c.readLat.Observe(done.Sub(now))
		return done, nil
	}

	ctrDone := mapDone
	if loc != logical {
		// Deduplicated (or displaced): the counter lives with the real
		// location's metadata.
		ctrDone = c.metaAccess(mapDone, c.addrCache, c.layout.AddrMapLine(loc), false, c.pfAddr)
	}

	// OTP generation overlaps the array read. A timing-only read copies
	// the ciphertext out only for the integrity tree to hash.
	var ct []byte
	if dst != nil || c.tree != nil {
		ct = c.lineScratch[:]
	}
	readDone := c.dev.ReadInto(ctrDone, loc, ct)
	otpDone := ctrDone.Add(t.AESLine)
	c.rec.Phase(attr.PhaseEncrypt, ctrDone, otpDone)
	done := units.Max(readDone, otpDone).Add(t.XOR)
	c.aesLineOps.Inc()
	c.dev.AddEnergy(c.cfg.Energy.AESBlock * config.AESBlocksPerLine)
	done, okv := c.verifyRead(done, loc, ct)

	c.enc.DecryptLine(dst, ct, loc, c.ctrs.Get(loc))
	c.readLat.Observe(done.Sub(now))
	if !okv {
		return done, fmt.Errorf("core: line %#x (location %#x): %w", logical, loc, ErrIntegrity)
	}
	return done, nil
}

// Report is a snapshot of the controller's statistics.
type Report struct {
	Mode          string
	Writes        uint64
	Reads         uint64
	DupEliminated uint64
	MissedByPNA   uint64
	MissedBySat   uint64
	AESLineOps    uint64
	AESWasted     uint64
	AESMetaOps    uint64
	CRCOps        uint64
	CompareOps    uint64
	MetaNVMReads  uint64
	MetaNVMWrites uint64
	WriteRetries  uint64
	FailedWrites  uint64
	PoisonedReads uint64
	PoisonedLines int
	TreeUpdates   uint64
	TreeChecks    uint64
	TreeFailed    uint64
	MeanWriteLat  units.Duration
	MeanReadLat   units.Duration
	WriteLatSum   units.Duration
	ReadLatSum    units.Duration
	P50WriteLat   units.Duration
	P95WriteLat   units.Duration
	P99WriteLat   units.Duration
	P50ReadLat    units.Duration
	P95ReadLat    units.Duration
	P99ReadLat    units.Duration
	PredAccuracy  float64
	Dedup         dedup.Stats
	Device        nvm.Stats
}

// FlushMetadata writes every dirty metadata line back to NVM — the ordered
// shutdown (or battery-drain) path for the battery-backed scheme. It
// returns the number of lines flushed; under write-through persistence the
// caches are always clean and it returns 0.
func (c *Controller) FlushMetadata(now units.Time) int {
	flushed := 0
	for _, cache := range c.MetaCaches() {
		for _, line := range cache.FlushAll() {
			c.writebackMeta(now, line)
			flushed++
		}
	}
	return flushed
}

// Report returns the current statistics snapshot.
func (c *Controller) Report() Report {
	return Report{
		Mode:          c.mode.String(),
		Writes:        c.writes.Value(),
		Reads:         c.reads.Value(),
		DupEliminated: c.dupEliminated.Value(),
		MissedByPNA:   c.missedByPNA.Value(),
		MissedBySat:   c.missedBySat.Value(),
		AESLineOps:    c.aesLineOps.Value(),
		AESWasted:     c.aesWasted.Value(),
		AESMetaOps:    c.aesMetaOps.Value(),
		CRCOps:        c.crcOps.Value(),
		CompareOps:    c.compareOps.Value(),
		MetaNVMReads:  c.metaNVMReads.Value(),
		MetaNVMWrites: c.metaNVMWrites.Value(),
		WriteRetries:  c.writeRetries.Value(),
		FailedWrites:  c.failedWrites.Value(),
		PoisonedReads: c.poisonedReads.Value(),
		PoisonedLines: len(c.poisoned),
		TreeUpdates:   c.treeUpdates.Value(),
		TreeChecks:    c.treeChecks.Value(),
		TreeFailed:    c.treeFailed.Value(),
		MeanWriteLat:  c.writeLat.Mean(),
		MeanReadLat:   c.readLat.Mean(),
		WriteLatSum:   c.writeLat.Sum(),
		ReadLatSum:    c.readLat.Sum(),
		P50WriteLat:   c.writeLat.P50(),
		P95WriteLat:   c.writeLat.P95(),
		P99WriteLat:   c.writeLat.P99(),
		P50ReadLat:    c.readLat.P50(),
		P95ReadLat:    c.readLat.P95(),
		P99ReadLat:    c.readLat.P99(),
		PredAccuracy:  c.pred.Accuracy(),
		Dedup:         c.tables.Snapshot(),
		Device:        c.dev.Stats(),
	}
}

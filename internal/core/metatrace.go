package core

import (
	"fmt"

	"dewrite/internal/config"
	"dewrite/internal/dedup"
	"dewrite/internal/metacache"
)

// newPartition builds metadata-cache partition part (MetaCaches order: 0
// hash table, 1 address mapping, 2 inverted hash, 3 FSM) under mc and returns
// it with its prefetch width in lines. The hash table is probed one line at a
// time; the sequential tables prefetch mc.PrefetchEnts entries.
func newPartition(mc config.MetaCacheConfig, part int) (*metacache.Cache, int) {
	switch part {
	case 0:
		return metacache.New("hash", mc.HashBytes, mc.BlockBytes, mc.Ways), 1
	case 1:
		return metacache.New("addrmap", mc.AddrMapBytes, mc.BlockBytes, mc.Ways),
			metacache.PrefetchLines(mc.PrefetchEnts, dedup.AddrMapEntriesPerLine)
	case 2:
		return metacache.New("invhash", mc.InvHashBytes, mc.BlockBytes, mc.Ways),
			metacache.PrefetchLines(mc.PrefetchEnts, dedup.InvHashEntriesPerLine)
	case 3:
		return metacache.New("fsm", mc.FSMBytes, mc.BlockBytes, mc.Ways),
			metacache.PrefetchLines(mc.PrefetchEnts, dedup.FSMEntriesPerLine)
	}
	panic(fmt.Sprintf("core: no metadata-cache partition %d", part))
}

// MetaTrace records the demand probes a controller's address-mapping,
// inverted-hash and FSM partitions receive. Their hits and misses change
// timing but never which metadata lines the controller touches, so replaying
// one partition's probes through a cache of another geometry yields the
// statistics a full controller run under that geometry would leave (Figure
// 21's sweeps). The hash-table partition is not recorded: a hash-cache miss
// changes the PNA decision, and with it the stream.
type MetaTrace struct {
	mc     config.MetaCacheConfig // the recording controller's
	limit  uint64                 // prefetch bound: the layout's TotalLines
	probes [4][]metacache.Probe   // MetaCaches order; the hash entry stays empty
}

// RecordMeta starts recording the controller's metadata probes and returns
// the trace, which grows with every later request.
func (c *Controller) RecordMeta() *MetaTrace {
	c.meta = &MetaTrace{mc: c.cfg.MetaCache, limit: c.layout.TotalLines}
	return c.meta
}

// recordMeta appends one demand probe of a partition cache to c.meta.
func (c *Controller) recordMeta(cache *metacache.Cache, line uint64, write bool) {
	var part int
	switch cache {
	case c.addrCache:
		part = 1
	case c.invCache:
		part = 2
	case c.fsmCache:
		part = 3
	default:
		return // the hash-table partition
	}
	c.meta.probes[part] = append(c.meta.probes[part], metacache.Probe{Block: line, Write: write})
}

// Replay runs partition part (1 address mapping, 2 inverted hash, 3 FSM) of
// the recorded probes through a fresh cache of mc's geometry and prefetch
// width, and returns its statistics. It panics when mc's hash-table partition
// (HashBytes, Ways, BlockBytes) differs from the recording controller's,
// since that would change the recorded stream itself.
func (t *MetaTrace) Replay(part int, mc config.MetaCacheConfig) metacache.Stats {
	if mc.HashBytes != t.mc.HashBytes || mc.Ways != t.mc.Ways || mc.BlockBytes != t.mc.BlockBytes {
		panic(fmt.Sprintf("core: MetaTrace recorded with a %d B, %d-way, %d B-block hash partition, replayed with %d B, %d-way, %d B-block",
			t.mc.HashBytes, t.mc.Ways, t.mc.BlockBytes, mc.HashBytes, mc.Ways, mc.BlockBytes))
	}
	if part == 0 {
		panic("core: MetaTrace does not record the hash-table partition")
	}
	cache, prefetch := newPartition(mc, part)
	cache.Replay(t.probes[part], prefetch, t.limit)
	return cache.Stats()
}

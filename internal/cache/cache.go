// Package cache models the four-level write-back CPU cache hierarchy of the
// paper's Table II configuration (256 B lines at every level, matching the
// deduplication granularity). It filters a CPU-level access stream down to
// the memory-level traffic the secure-NVM controller sees: fills on misses
// and write-backs of dirty victims.
package cache

import (
	"dewrite/internal/config"
	"dewrite/internal/metacache"
	"dewrite/internal/units"
)

// Level is one cache level: a set-associative, true-LRU, write-back
// metadata-cache model of 256 B lines (the same model as the controller's
// metadata partitions) plus the level's access latency. Its hits and misses
// count the hierarchy's lookups; fills and invalidations count neither.
type Level struct {
	*metacache.Cache
	latency units.Duration
}

// NewLevel builds a level from its configuration. It panics when the level
// holds fewer lines than ways.
func NewLevel(cfg config.CacheLevel) *Level {
	return &Level{
		Cache:   metacache.New(cfg.Name, cfg.SizeBytes, config.LineSize, cfg.Ways),
		latency: cfg.Latency,
	}
}

// Hierarchy is an ordered stack of levels, L1 first.
type Hierarchy struct {
	levels []*Level
}

// NewHierarchy builds the stack from the configuration, L1 first.
func NewHierarchy(cfgs []config.CacheLevel) *Hierarchy {
	if len(cfgs) == 0 {
		panic("cache: empty hierarchy")
	}
	h := &Hierarchy{}
	for _, c := range cfgs {
		h.levels = append(h.levels, NewLevel(c))
	}
	return h
}

// Levels returns the stack for statistics.
func (h *Hierarchy) Levels() []*Level { return h.levels }

// AccessResult describes one CPU access's effect.
type AccessResult struct {
	// Latency is the on-chip lookup latency (memory latency is the caller's).
	Latency units.Duration
	// HitLevel is the 0-based level that hit, or -1 for a full miss.
	HitLevel int
	// MemFill is true when the line must be fetched from memory.
	MemFill bool
	// Writebacks are dirty victim lines that must be written to memory.
	Writebacks []uint64
}

// Access performs one CPU load (store=false) or store (store=true) of the
// line address, updating every level.
func (h *Hierarchy) Access(addr uint64, store bool) AccessResult {
	res := AccessResult{HitLevel: -1}
	for i, l := range h.levels {
		res.Latency += l.latency
		if l.Lookup(addr, store && i == 0) {
			res.HitLevel = i
			// Promote into the upper levels.
			for j := i - 1; j >= 0; j-- {
				res.Writebacks = append(res.Writebacks, h.fillLevel(j, addr, store && j == 0)...)
			}
			if store && i != 0 {
				// The dirty bit lives at L1 after promotion.
				h.levels[0].Lookup(addr, true)
			}
			return res
		}
	}
	// Full miss: fetch from memory and fill every level.
	res.MemFill = true
	for j := len(h.levels) - 1; j >= 0; j-- {
		res.Writebacks = append(res.Writebacks, h.fillLevel(j, addr, store && j == 0)...)
	}
	return res
}

// fillLevel inserts addr into level j; a dirty victim ripples to the next
// lower level and finally to memory.
func (h *Hierarchy) fillLevel(j int, addr uint64, dirty bool) []uint64 {
	ev, evicted := h.levels[j].Insert(addr, dirty)
	if !evicted {
		return nil
	}
	// Inclusive-style: drop the victim from the upper levels, folding their
	// dirtiness down.
	victimDirty := ev.Dirty
	for u := 0; u < j; u++ {
		if d, ok := h.levels[u].Invalidate(ev.Block); ok && d {
			victimDirty = true
		}
	}
	if !victimDirty {
		return nil
	}
	return h.rippleDown(j+1, ev.Block)
}

// rippleDown writes a dirty line back into level j, or to memory below the
// last level; a dirty victim it displaces ripples on down.
func (h *Hierarchy) rippleDown(j int, addr uint64) []uint64 {
	if j == len(h.levels) {
		return []uint64{addr}
	}
	ev, evicted := h.levels[j].Insert(addr, true)
	if evicted && ev.Dirty {
		return h.rippleDown(j+1, ev.Block)
	}
	return nil
}

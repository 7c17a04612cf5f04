// Package shard partitions the NVM address space across N controller shards
// and maintains the cross-shard fingerprint directory that gives the sharded
// execution mode a global view of which line contents are resident anywhere
// in the device.
//
// The package has two halves:
//
//   - Router is pure arithmetic: global line addresses are striped across
//     shards (shard = addr mod N, local = addr div N), so consecutive lines
//     land on different shards and every shard sees a statistically similar
//     slice of any workload's locality.
//
//   - Directory is the shared fingerprint index. It is generational: readers
//     always see the generation frozen at the last barrier (lock-free — the
//     frozen maps are immutable between Advance calls), while writers
//     accumulate deltas into striped pending buffers under fine-grained
//     mutexes. Advance, called at each epoch barrier by the coordinating
//     goroutine, folds the pending deltas into the next frozen generation.
//
// Determinism is the point of the design: within an epoch every lookup
// answers from the same frozen snapshot no matter how worker goroutines
// interleave, and pending deltas are commutative per (fingerprint, shard)
// integers, so the post-barrier generation is identical for any worker
// count or scheduling. The simulator's invariants doc (DESIGN.md section
// 12) describes how the sharded runner drives the barrier protocol.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dewrite/internal/config"
)

// Router stripes global line addresses across n shards.
type Router struct {
	n uint64
}

// NewRouter returns a router over n shards (n >= 1).
func NewRouter(n int) Router {
	if n < 1 {
		panic(fmt.Sprintf("shard: router over %d shards", n))
	}
	return Router{n: uint64(n)}
}

// ShardOf returns the shard owning the global line address.
func (r Router) ShardOf(addr uint64) int { return int(addr % r.n) }

// Local translates a global line address into the owning shard's local
// address space.
func (r Router) Local(addr uint64) uint64 { return addr / r.n }

// Global is the inverse of (ShardOf, Local).
func (r Router) Global(shard int, local uint64) uint64 {
	return local*r.n + uint64(shard)
}

// LinesFor returns how many of totalLines global lines stripe onto the
// shard — the size of the shard's local address space. Every shard gets at
// least one line so degenerate configurations still construct a device.
func (r Router) LinesFor(shard int, totalLines uint64) uint64 {
	if shard < 0 || uint64(shard) >= r.n {
		panic(fmt.Sprintf("shard: shard %d of %d", shard, r.n))
	}
	if totalLines <= uint64(shard) {
		return 1
	}
	return (totalLines - uint64(shard) + r.n - 1) / r.n
}

// BankSlice returns the device configuration of each of n shards that
// divide cfg's device: an equal slice of its banks (at least one) on a
// single rank. The partition divides the device; it does not replicate it.
func BankSlice(cfg config.Config, n int) config.Config {
	banks := max(cfg.NVM.Banks()/n, 1)
	cfg.NVM.Ranks = 1
	cfg.NVM.BanksPerRank = banks
	return cfg
}

// numStripes is the lock-striping width of the directory. 64 stripes keeps
// the probability of two shards contending on one mutex low at any
// realistic shard count while the per-directory footprint stays small.
const numStripes = 64

// stripe is one lock-striped slice of the directory. frozen is immutable
// between Advance calls and read without the mutex; pending accumulates
// this epoch's deltas under mu.
type stripe struct {
	mu      sync.Mutex
	frozen  map[uint32][]uint32 // fingerprint → live-location count per shard
	pending map[uint32][]int32  // fingerprint → this epoch's deltas per shard
}

// Directory is the cross-shard fingerprint index. Construct with
// NewDirectory; the zero value is not usable.
//
// Concurrency contract: Publish and the read methods (GlobalRefs,
// HeldElsewhere) may be called concurrently from any goroutine between two
// Advance calls. Advance itself must only run at a barrier — when no
// Publish or read is in flight — which is exactly when the sharded
// runner's epoch workers have all parked.
type Directory struct {
	shards   int
	stripes  [numStripes]stripe
	advances uint64

	// census is the frozen generation's Snapshot less Advances. Advance
	// keeps it current fingerprint by fingerprint as it folds deltas, so a
	// snapshot never scans the frozen maps.
	census Stats

	// pubs counts Publish calls per shard during the current epoch
	// (atomics, so publishers never contend on a shared lock for the
	// count); Advance folds it into lastPubs and resets. The counts are a
	// deterministic function of the request stream — they exist for live
	// imbalance monitoring and never enter run reports.
	pubs     []uint64
	lastPubs []uint64
}

// NewDirectory returns an empty directory over the given shard count.
func NewDirectory(shards int) *Directory {
	if shards < 1 {
		panic(fmt.Sprintf("shard: directory over %d shards", shards))
	}
	d := &Directory{
		shards:   shards,
		pubs:     make([]uint64, shards),
		lastPubs: make([]uint64, shards),
	}
	for i := range d.stripes {
		d.stripes[i].frozen = make(map[uint32][]uint32)
		d.stripes[i].pending = make(map[uint32][]int32)
	}
	return d
}

// Publisher returns the publish hook a shard's dedup tables take
// (dedup.Tables.SetPublish): every change to a fingerprint's live count
// lands in the directory as that shard's delta.
func (d *Directory) Publisher(shard int) func(h uint32, delta int) {
	return func(h uint32, delta int) { d.Publish(shard, h, delta) }
}

func (d *Directory) stripeOf(h uint32) *stripe {
	// Fingerprints are CRC-32 values; the low bits are well mixed, but fold
	// the high half in so truncated fingerprint widths still spread.
	return &d.stripes[(h^h>>16)%numStripes]
}

// Publish records a fingerprint-index change from one shard: delta is +1
// when the shard's dedup tables added a live location under h, -1 when one
// was removed. The change lands in the pending generation and becomes
// visible to readers only after the next Advance. Safe for concurrent use.
func (d *Directory) Publish(shard int, h uint32, delta int) {
	if shard < 0 || shard >= d.shards {
		panic(fmt.Sprintf("shard: publish from shard %d of %d", shard, d.shards))
	}
	atomic.AddUint64(&d.pubs[shard], 1)
	st := d.stripeOf(h)
	st.mu.Lock()
	p := st.pending[h]
	if p == nil {
		p = make([]int32, d.shards)
		st.pending[h] = p
	}
	p[shard] += int32(delta)
	st.mu.Unlock()
}

// Advance folds the pending deltas into a new frozen generation and clears
// the pending buffers. Call only at an epoch barrier (see the concurrency
// contract on Directory).
func (d *Directory) Advance() {
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		for h, deltas := range st.pending {
			f := st.frozen[h]
			if f == nil {
				f = make([]uint32, d.shards)
				st.frozen[h] = f
			}
			was := share(f)
			for s, delta := range deltas {
				n := int64(f[s]) + int64(delta)
				if n < 0 {
					panic(fmt.Sprintf("shard: fingerprint %#x count below zero on shard %d", h, s))
				}
				f[s] = uint32(n)
			}
			now := share(f)
			// Unsigned wrap-around cancels: each total stays the sum of
			// the shares of the fingerprints still frozen.
			d.census.Fingerprints += now.Fingerprints - was.Fingerprints
			d.census.Locations += now.Locations - was.Locations
			d.census.Shared += now.Shared - was.Shared
			if now.Fingerprints == 0 {
				delete(st.frozen, h)
			}
			delete(st.pending, h)
		}
		st.mu.Unlock()
	}
	for i := range d.pubs {
		d.lastPubs[i] = atomic.SwapUint64(&d.pubs[i], 0)
	}
	d.advances++
}

// EpochPublishes returns each shard's Publish-call count during the epoch
// closed by the most recent Advance — a cheap, deterministic imbalance
// signal for live monitors (it never enters run reports). The returned
// slice is a copy. Like the read methods it must not race an Advance.
func (d *Directory) EpochPublishes() []uint64 {
	out := make([]uint64, len(d.lastPubs))
	copy(out, d.lastPubs)
	return out
}

// GlobalRefs returns the number of live locations holding data with
// fingerprint h anywhere in the device, per the frozen generation.
func (d *Directory) GlobalRefs(h uint32) uint64 {
	var total uint64
	for _, c := range d.stripeOf(h).frozen[h] {
		total += uint64(c)
	}
	return total
}

// HeldElsewhere reports whether a shard other than self holds a live
// location with fingerprint h, per the frozen generation — the cross-shard
// duplicate test.
func (d *Directory) HeldElsewhere(h uint32, self int) bool {
	for s, c := range d.stripeOf(h).frozen[h] {
		if s != self && c > 0 {
			return true
		}
	}
	return false
}

// Stats is a census of the frozen generation.
type Stats struct {
	// Fingerprints counts distinct fingerprints with at least one live
	// location anywhere; Locations the live locations under them.
	Fingerprints uint64 `json:"fingerprints"`
	Locations    uint64 `json:"locations"`
	// Shared counts fingerprints live on more than one shard — the upper
	// bound on what cross-shard mapping could deduplicate beyond the
	// shard-local tables.
	Shared uint64 `json:"shared"`
	// Advances is the number of epoch barriers the directory has crossed.
	Advances uint64 `json:"advances"`
}

// Snapshot summarizes the frozen generation from the census Advance keeps,
// without a scan. Like the read methods it must not race an Advance; the
// sharded runner calls it after the final barrier, the serving daemon at
// every barrier.
func (d *Directory) Snapshot() Stats {
	st := d.census
	st.Advances = d.advances
	return st
}

// share is one fingerprint's part of the census, from its per-shard counts:
// no fingerprint when no shard holds a live location under it.
func share(counts []uint32) Stats {
	var st Stats
	holders := 0
	for _, c := range counts {
		st.Locations += uint64(c)
		if c > 0 {
			holders++
		}
	}
	if holders > 0 {
		st.Fingerprints = 1
	}
	if holders > 1 {
		st.Shared = 1
	}
	return st
}

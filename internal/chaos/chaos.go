// Package chaos is the serving daemon's seeded, deterministic fault plan:
// given one seed it decides — as a pure function of stable ordinals, never of
// wall-clock time or goroutine interleaving — which client connections get
// reset mid-stream, which are paced like a slow-loris sender, which shard
// requests stall as if a barrier or GC pause hit, and which snapshot
// generations abort partway through their file writes (a torn snapshot the
// recovery scan must step over).
//
// The plan itself holds no mutable state: every decision derives a throwaway
// rng source from (seed, decision kind, ordinal), so two processes with the
// same seed agree on every verdict regardless of the order the questions are
// asked in. That is what makes a chaos soak reproducible: the harness replays
// the same resets and stalls on every run, and a failure bisects to a seed,
// not to a scheduler coincidence.
//
// The package is gated under the dewrite-vet determinism analyzer: durations
// are returned as values for the (wall-clock) serving layer to apply; nothing
// here may read the clock or range over a map.
package chaos

import "dewrite/internal/rng"

// Decision-kind salts: distinct streams per fault mechanism so enabling one
// never shifts another's draws.
const (
	kindConnReset uint64 = 0xc0a1
	kindSlowRead  uint64 = 0x51ed
	kindStall     uint64 = 0x57a1
	kindSnapAbort uint64 = 0x5a0b
)

// Plan is one seeded chaos configuration. The zero value (and the nil plan)
// disables every mechanism; Default fills in soak-grade rates. Fields may be
// adjusted before the plan is handed to the server; they must not change
// afterwards (decisions are memoryless, so a mid-run change would break
// replayability, not crash).
type Plan struct {
	// Seed drives every draw. Independent of workload and fault-injector
	// seeds so chaos varies one axis at a time.
	Seed uint64

	// ConnResetRate is the probability a given client connection is chosen
	// for an abrupt server-side close after a bounded number of frames.
	ConnResetRate float64
	// ConnResetMaxFrames bounds how many frames a doomed connection serves
	// before the reset (the exact count is drawn per connection in
	// [1, ConnResetMaxFrames]).
	ConnResetMaxFrames uint64

	// SlowReadRate is the probability a connection is paced like a
	// slow-loris sender: every frame read on it is preceded by SlowReadNs of
	// injected delay, holding the connection's resources hostage.
	SlowReadRate float64
	// SlowReadNs is the injected per-frame delay for slow connections.
	SlowReadNs uint64

	// StallRate is the per-request probability that a shard owner stalls for
	// StallNs before executing, emulating a slow epoch barrier or a
	// stop-the-world pause on one shard. Stalls are drawn per (shard,
	// request ordinal), so they land on the same requests every run.
	StallRate float64
	// StallNs is the injected owner stall.
	StallNs uint64

	// SnapshotAbortRate is the probability a snapshot generation crashes
	// mid-write: only a prefix of its shard files reaches the temp
	// directory and the rename-into-place never happens, leaving exactly
	// the debris a kill -9 during a snapshot leaves.
	SnapshotAbortRate float64
}

// Default returns the soak-grade plan used by -chaos: every mechanism on at
// rates that fire often enough to matter in a few thousand requests while
// leaving most traffic clean.
func Default(seed uint64) *Plan {
	return &Plan{
		Seed:               seed,
		ConnResetRate:      0.25,
		ConnResetMaxFrames: 256,
		SlowReadRate:       0.10,
		SlowReadNs:         2_000_000, // 2ms per frame
		StallRate:          0.002,
		StallNs:            20_000_000, // 20ms owner stall
		SnapshotAbortRate:  0.25,
	}
}

// draw returns a fresh source for one decision, keyed by the decision kind
// and up to two ordinals. splitmix-style mixing keeps adjacent ordinals'
// streams independent.
func (p *Plan) draw(kind, a, b uint64) *rng.Source {
	x := p.Seed
	x ^= kind * 0x9e3779b97f4a7c15
	x ^= a * 0xbf58476d1ce4e5b9
	x ^= b * 0x94d049bb133111eb
	return rng.New(x)
}

// ConnReset decides whether the connection with the given ordinal is doomed,
// and if so after how many served frames the server resets it (always ≥ 1,
// so at least one response is flushed and the books stay balanced — the
// close lands between frames, after the flush).
func (p *Plan) ConnReset(conn uint64) (afterFrames uint64, ok bool) {
	if p == nil || p.ConnResetRate <= 0 {
		return 0, false
	}
	src := p.draw(kindConnReset, conn, 0)
	if !src.Bool(p.ConnResetRate) {
		return 0, false
	}
	max := p.ConnResetMaxFrames
	if max == 0 {
		max = 256
	}
	return 1 + src.Uint64n(max), true
}

// ReadDelayNs returns the injected delay before reading the given frame on
// the given connection — nonzero only on connections the plan paces slow.
func (p *Plan) ReadDelayNs(conn uint64) uint64 {
	if p == nil || p.SlowReadRate <= 0 {
		return 0
	}
	if !p.draw(kindSlowRead, conn, 0).Bool(p.SlowReadRate) {
		return 0
	}
	return p.SlowReadNs
}

// ShardStallNs returns the injected owner stall before executing the shard's
// ordinal-th request (0 for no stall).
func (p *Plan) ShardStallNs(shard int, ordinal uint64) uint64 {
	if p == nil || p.StallRate <= 0 {
		return 0
	}
	if !p.draw(kindStall, uint64(shard)+1, ordinal).Bool(p.StallRate) {
		return 0
	}
	return p.StallNs
}

// SnapshotAbort decides whether the snapshot of the given generation crashes
// mid-write; afterFiles is how many shard files make it to the temp
// directory before the abort (possibly zero — the crash can precede the
// first write).
func (p *Plan) SnapshotAbort(generation uint64, files int) (afterFiles int, ok bool) {
	if p == nil || p.SnapshotAbortRate <= 0 || files <= 0 {
		return 0, false
	}
	src := p.draw(kindSnapAbort, generation, 0)
	if !src.Bool(p.SnapshotAbortRate) {
		return 0, false
	}
	return src.Intn(files), true
}

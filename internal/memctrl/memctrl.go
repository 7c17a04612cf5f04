// Package memctrl is an event-driven, open-loop memory-controller simulator:
// given a fixed arrival schedule of line requests, it services them through
// per-bank queues under a selectable scheduling policy and reports each
// request's start and completion.
//
// It complements the call-time model in internal/nvm, which runs closed-loop
// under the CPU model (the memory backing up slows the request stream). An
// open-loop run keeps arrivals fixed, which is how trace-driven simulators
// like the paper's NVMain measure latency: when 54 % of the writes disappear,
// the survivors and the reads stop queueing behind them, and the full
// magnitude of the paper's read/write speedups becomes visible
// (the abl-openloop experiment).
package memctrl

import (
	"fmt"
	"sort"

	"dewrite/internal/config"
	"dewrite/internal/fault"
	"dewrite/internal/stats"
	"dewrite/internal/units"
)

// Policy selects the per-bank scheduling discipline.
type Policy int

const (
	// FCFS services requests strictly in arrival order.
	FCFS Policy = iota
	// FRFCFS prefers row-buffer hits among arrived requests, then arrival
	// order — the standard first-ready first-come-first-served scheduler.
	FRFCFS
	// ReadFirst services arrived reads before writes (writes are buffered
	// and drain when no read is waiting), with FR-FCFS tie-breaking within
	// each class. Writes still occupy the bank once started.
	ReadFirst
	// WriteDrain is ReadFirst with a high watermark: once DrainThreshold
	// writes are queued at a bank, the controller force-drains writes even
	// while reads wait — the backpressure policy real write queues apply to
	// bound buffering.
	WriteDrain
)

// DrainThreshold is WriteDrain's per-bank high watermark.
const DrainThreshold = 8

// String returns the policy's display name.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case FRFCFS:
		return "FR-FCFS"
	case ReadFirst:
		return "ReadFirst"
	case WriteDrain:
		return "WriteDrain"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Op is the request type.
type Op uint8

// Request operations.
const (
	Read Op = iota
	Write
)

// Request is one line request with a fixed arrival time.
type Request struct {
	Arrive units.Time
	Op     Op
	Addr   uint64 // line address
}

// Completion records when a request was serviced.
type Completion struct {
	Request
	Start units.Time // when the bank began servicing it
	Done  units.Time
	Hit   bool // row-buffer hit
}

// Latency returns Done - Arrive.
func (c Completion) Latency() units.Duration { return c.Done.Sub(c.Arrive) }

// Config describes the device the controller schedules over.
type Config struct {
	Banks    int
	RowLines uint64
	Timing   config.Timing

	// Faults arms the wear-out model for the open-loop run: writes past a
	// line's drawn lifetime fail the write-verify and walk the degradation
	// ladder (ECP correction, spare-region rewrite), which shows up as extra
	// service time on the bank. Transient read errors are not modelled here —
	// the open-loop simulator carries no data to corrupt. The zero value
	// disables injection.
	Faults fault.Config
}

// DefaultConfig mirrors the experiment device: 8 banks, 16-line rows, the
// paper's latencies.
func DefaultConfig() Config {
	return Config{Banks: 8, RowLines: 16, Timing: config.DefaultTiming()}
}

// Simulate services every request and returns completions in the order the
// requests were given. Requests need not be pre-sorted by arrival.
func Simulate(reqs []Request, cfg Config, policy Policy) []Completion {
	out, _ := SimulateStats(reqs, cfg, policy)
	return out
}

// wearState is the per-run wear-out bookkeeping SimulateStats threads through
// the bank loops. Every map is keyed by external line address; each address
// belongs to exactly one bank, so sequential per-bank simulation never races
// and — the injector's lifetime draw being a pure function of (seed, line) —
// the outcome is independent of bank iteration order.
type wearState struct {
	inj     *fault.Injector
	cfg     fault.Config
	wear    map[uint64]uint64
	ecpUsed map[uint64]int
	remaps  map[uint64]int // remap generation: how many spare lines consumed
	stuck   map[uint64]bool
	spares  uint64
	stats   fault.DeviceStats
}

// physKey derives the injector's lifetime key for an address in its current
// remap generation — a remapped line is physically a fresh spare, so it draws
// a fresh lifetime.
func (ws *wearState) physKey(addr uint64) uint64 {
	return addr ^ (uint64(ws.remaps[addr]) * 0xa0761d6478bd642f)
}

// onWrite walks the degradation ladder for one scheduled write and returns the
// extra service time it costs: a worn line fails the write-verify (one
// row-open read), then either an ECP entry absorbs it, a spare-region rewrite
// re-programs it (one extra write pulse), or the line is permanently stuck.
func (ws *wearState) onWrite(addr uint64, t config.Timing) units.Duration {
	if ws.inj == nil {
		return 0
	}
	if ws.stuck[addr] {
		ws.stats.StuckWrites++
		return t.NVMRowHit
	}
	ws.wear[addr]++
	key := ws.physKey(addr)
	if !ws.inj.WornOut(key, ws.wear[addr]) {
		return 0
	}
	ws.stats.WornWrites++
	extra := t.NVMRowHit // the verify read that catches the stuck bits
	switch {
	case ws.ecpUsed[key] < ws.cfg.ECPBudget:
		ws.ecpUsed[key]++
		ws.stats.ECPCorrections++
	case ws.stats.SpareUsed < ws.spares:
		ws.stats.SpareUsed++
		ws.stats.Remaps++
		ws.remaps[addr]++
		ws.wear[addr] = 0 // the spare line starts unworn
		extra += t.NVMWrite
	default:
		ws.stuck[addr] = true
		ws.stats.StuckLines++
		ws.stats.StuckWrites++
	}
	return extra
}

// SimulateStats is Simulate with the wear-out census surfaced. Without an
// armed Config.Faults the census is the zero value.
func SimulateStats(reqs []Request, cfg Config, policy Policy) ([]Completion, fault.DeviceStats) {
	if cfg.Banks <= 0 {
		panic("memctrl: no banks")
	}
	if cfg.RowLines == 0 {
		cfg.RowLines = 1
	}

	var ws *wearState
	if inj := fault.New(cfg.Faults); inj != nil {
		var maxAddr uint64
		for _, r := range reqs {
			if r.Addr > maxAddr {
				maxAddr = r.Addr
			}
		}
		fc := inj.Config()
		ws = &wearState{
			inj:     inj,
			cfg:     fc,
			wear:    make(map[uint64]uint64),
			ecpUsed: make(map[uint64]int),
			remaps:  make(map[uint64]int),
			stuck:   make(map[uint64]bool),
			spares:  uint64(fc.SpareFrac * float64(maxAddr+1)),
		}
		ws.stats.SpareLines = ws.spares
	}

	// Partition per bank, keeping each request's original index so results
	// return in input order. Banks are independent, so each is simulated on
	// its own.
	perBank := make([][]indexed, cfg.Banks)
	for i, r := range reqs {
		b := int((r.Addr / cfg.RowLines) % uint64(cfg.Banks))
		perBank[b] = append(perBank[b], indexed{r, i})
	}

	out := make([]Completion, len(reqs))
	for _, queue := range perBank {
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrive < queue[j].Arrive })

		var now units.Time
		var openRow uint64
		hasOpen := false
		pending := queue
		for len(pending) > 0 {
			// Advance to the next arrival if the bank is idle.
			if pending[0].Arrive > now {
				now = pending[0].Arrive
			}
			// Candidates: all requests that have arrived.
			n := 0
			for n < len(pending) && pending[n].Arrive <= now {
				n++
			}
			pick := choose(pending[:n], policy, openRow, hasOpen, cfg.RowLines)

			r := pending[pick]
			pending = append(pending[:pick], pending[pick+1:]...)

			row := r.Addr / cfg.RowLines
			hit := hasOpen && openRow == row && r.Op == Read
			var service units.Duration
			switch {
			case r.Op == Write:
				service = cfg.Timing.NVMWrite
				if ws != nil {
					service += ws.onWrite(r.Addr, cfg.Timing)
				}
			case hit:
				service = cfg.Timing.NVMRowHit
			default:
				service = cfg.Timing.NVMRead
			}
			start := units.Max(now, r.Arrive)
			done := start.Add(service)
			now = done
			openRow, hasOpen = row, true

			out[r.idx] = Completion{Request: r.Request, Start: start, Done: done, Hit: hit}
		}
	}
	if ws != nil {
		return out, ws.stats
	}
	return out, fault.DeviceStats{}
}

// indexed carries a request together with its position in the input slice.
type indexed struct {
	Request
	idx int
}

// choose picks the index of the next request among the arrived candidates
// (candidates is never empty; index 0 is the oldest).
func choose(candidates []indexed, policy Policy, openRow uint64, hasOpen bool, rowLines uint64) int {
	if len(candidates) == 0 {
		panic("memctrl: no candidates")
	}
	rowHit := func(i int) bool {
		return hasOpen && candidates[i].Addr/rowLines == openRow
	}
	switch policy {
	case FCFS:
		return 0
	case FRFCFS:
		for i := range candidates {
			if rowHit(i) {
				return i
			}
		}
		return 0
	case ReadFirst, WriteDrain:
		if policy == WriteDrain {
			writes := 0
			for i := range candidates {
				if candidates[i].Op == Write {
					writes++
				}
			}
			if writes >= DrainThreshold {
				// Forced drain: oldest write, ignoring waiting reads.
				for i := range candidates {
					if candidates[i].Op == Write {
						return i
					}
				}
			}
		}
		// Reads first (row hits among them preferred), then writes.
		firstRead := -1
		for i := range candidates {
			if candidates[i].Op == Read {
				if rowHit(i) {
					return i
				}
				if firstRead < 0 {
					firstRead = i
				}
			}
		}
		if firstRead >= 0 {
			return firstRead
		}
		for i := range candidates {
			if rowHit(i) {
				return i
			}
		}
		return 0
	default:
		panic(fmt.Sprintf("memctrl: unknown policy %d", policy))
	}
}

// Summary aggregates completions by operation.
type Summary struct {
	Reads         uint64
	Writes        uint64
	MeanReadLat   units.Duration
	MeanWriteLat  units.Duration
	P50ReadLat    units.Duration
	P95ReadLat    units.Duration
	P99ReadLat    units.Duration
	P50WriteLat   units.Duration
	P95WriteLat   units.Duration
	P99WriteLat   units.Duration
	RowHitRate    float64
	TotalReadLat  units.Duration
	TotalWriteLat units.Duration
}

// Summarize aggregates a completion list.
func Summarize(cs []Completion) Summary {
	var s Summary
	var readLat, writeLat stats.Latency
	var hits, reads uint64
	var readLats []units.Duration
	for _, c := range cs {
		if c.Op == Read {
			readLat.Observe(c.Latency())
			readLats = append(readLats, c.Latency())
			reads++
			if c.Hit {
				hits++
			}
		} else {
			writeLat.Observe(c.Latency())
		}
	}
	s.Reads = readLat.Count()
	s.Writes = writeLat.Count()
	s.MeanReadLat = readLat.Mean()
	s.MeanWriteLat = writeLat.Mean()
	s.TotalReadLat = readLat.Sum()
	s.TotalWriteLat = writeLat.Sum()
	s.RowHitRate = stats.Ratio(hits, reads)
	if len(readLats) > 0 {
		sort.Slice(readLats, func(i, j int) bool { return readLats[i] < readLats[j] })
		s.P50ReadLat = readLats[(len(readLats)*50)/100]
		s.P95ReadLat = readLats[(len(readLats)*95)/100]
		s.P99ReadLat = readLats[(len(readLats)*99)/100]
	}
	s.P50WriteLat = writeLat.P50()
	s.P95WriteLat = writeLat.P95()
	s.P99WriteLat = writeLat.P99()
	return s
}

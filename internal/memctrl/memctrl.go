// Package memctrl is an event-driven, open-loop memory-controller simulator:
// given a fixed arrival schedule of line requests, it services them through
// per-bank queues under the first-ready first-come-first-served (FR-FCFS)
// scheduler and reports each request's start and completion.
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
	"sort"

	"dewrite/internal/config"
	"dewrite/internal/stats"
	"dewrite/internal/units"
)

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
}

// DefaultConfig mirrors the experiment device: 8 banks, 16-line rows, the
// paper's latencies.
func DefaultConfig() Config {
	return Config{Banks: 8, RowLines: 16, Timing: config.DefaultTiming()}
}

// Simulate services every request under FR-FCFS and returns completions in
// the order the requests were given. Requests need not be pre-sorted by
// arrival.
func Simulate(reqs []Request, cfg Config) []Completion {
	if cfg.Banks <= 0 {
		panic("memctrl: no banks")
	}
	if cfg.RowLines == 0 {
		cfg.RowLines = 1
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
			pick := choose(pending[:n], openRow, hasOpen, cfg.RowLines)

			// Remove the pick by shifting the arrived requests ahead of it
			// one slot back: O(pick) rather than a copy of the bank's whole
			// future, and the rest keep their arrival order.
			r := pending[pick]
			copy(pending[1:pick+1], pending[:pick])
			pending = pending[1:]

			row := r.Addr / cfg.RowLines
			hit := hasOpen && openRow == row && r.Op == Read
			var service units.Duration
			switch {
			case r.Op == Write:
				service = cfg.Timing.NVMWrite
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
	return out
}

// indexed carries a request together with its position in the input slice.
type indexed struct {
	Request
	idx int
}

// choose picks the index of the next request among the arrived candidates
// (candidates is never empty; index 0 is the oldest): the oldest row-buffer
// hit, else the oldest request.
func choose(candidates []indexed, openRow uint64, hasOpen bool, rowLines uint64) int {
	if hasOpen {
		for i := range candidates {
			if candidates[i].Addr/rowLines == openRow {
				return i
			}
		}
	}
	return 0
}

// Summary aggregates completions by operation.
type Summary struct {
	Writes        uint64
	MeanReadLat   units.Duration
	MeanWriteLat  units.Duration
	TotalReadLat  units.Duration
	TotalWriteLat units.Duration
}

// Summarize aggregates a completion list.
func Summarize(cs []Completion) Summary {
	var readLat, writeLat stats.Latency
	for _, c := range cs {
		if c.Op == Read {
			readLat.Observe(c.Latency())
		} else {
			writeLat.Observe(c.Latency())
		}
	}
	return Summary{
		Writes:        writeLat.Count(),
		MeanReadLat:   readLat.Mean(),
		MeanWriteLat:  writeLat.Mean(),
		TotalReadLat:  readLat.Sum(),
		TotalWriteLat: writeLat.Sum(),
	}
}

package attr

import (
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// Recorder is the attribution layer's one instrument: a sampled per-request
// context that the simulation loop opens around each memory request and that
// the components the request flows through decorate with phases and
// functional-op counts. It owns the run's write-provenance Ledger, so one
// attachment call wires both halves, and — with span capture on — it keeps
// every sampled request and phase as a span for the Chrome trace, fed by the
// same calls that feed the aggregates.
//
// Sampling is deterministic: request i is sampled iff i mod period equals an
// offset drawn from internal/rng with the run's seed, so two runs of the
// same workload sample identical requests regardless of how many worker
// goroutines drive sibling runs. Unsampled requests cost one counter
// increment and a compare; phases recorded outside an open sampled context
// are discarded by a single branch.
//
// The nil *Recorder is the disabled instrument: every method is safe (and
// allocation-free) to call on it. Not safe for concurrent use; recorders are
// per-run, like timeline collectors.
type Recorder struct {
	period uint64
	offset uint64
	seen   uint64

	open   bool
	kind   Kind
	thread int
	addr   uint64
	start  units.Time

	// Per-open-request scratch, folded into the totals at End.
	curr    [NumPhases]phaseAgg
	currOps [NumOps]uint64

	phases  [NumKinds][NumPhases]phaseAgg
	ops     [NumKinds][NumOps]uint64
	sampled [NumKinds]uint64
	total   [NumKinds]units.Duration

	led Ledger

	// Span capture: off while maxSpans is 0. Spans past the cap are counted
	// in dropped, so a long run cannot exhaust memory.
	maxSpans int
	spans    []span
	dropped  uint64
}

type phaseAgg struct {
	count uint64
	total units.Duration
}

// span is one captured segment of simulated time on one trace track.
type span struct {
	name  string
	track int32
	start units.Time
	dur   units.Duration
	addr  uint64
}

// DefaultSamplePeriod is the sampling period used when none is given: one in
// 1024 requests, the rate at which the measured overhead stays below 1 %.
const DefaultSamplePeriod = 1024

// DefaultMaxSpans bounds the span buffer when capture is turned on without
// a cap: 4 Mi spans ≈ 200 MB.
const DefaultMaxSpans = 4 << 20

// NewRecorder returns an enabled recorder sampling every period-th request,
// with the sampling offset derived deterministically from seed. period <= 0
// selects DefaultSamplePeriod; period 1 samples every request.
func NewRecorder(period int, seed uint64) *Recorder {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	r := &Recorder{period: uint64(period)}
	r.offset = rng.New(seed).Uint64n(r.period)
	return r
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// SamplePeriod returns the every-Nth sampling period (0 when disabled).
func (r *Recorder) SamplePeriod() uint64 {
	if r == nil {
		return 0
	}
	return r.period
}

// SampleOffset returns the deterministic sampling offset in [0, period).
func (r *Recorder) SampleOffset() uint64 {
	if r == nil {
		return 0
	}
	return r.offset
}

// CaptureSpans turns span capture on: every sampled request and every phase
// recorded inside it is also kept as a span for WriteChromeTrace, up to
// maxSpans spans (DefaultMaxSpans when maxSpans <= 0); later spans are
// counted as dropped. Capture changes no aggregate, so the report is the
// same with it on or off.
func (r *Recorder) CaptureSpans(maxSpans int) {
	if r == nil {
		return
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	r.maxSpans = maxSpans
}

// Capturing reports whether span capture is on.
func (r *Recorder) Capturing() bool {
	return r != nil && r.maxSpans > 0
}

// Captured returns the number of spans kept so far.
func (r *Recorder) Captured() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Dropped returns the number of spans discarded after the buffer filled.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Ledger returns the recorder's write-provenance ledger (nil when the
// recorder is disabled), for the device to record causes into.
func (r *Recorder) Ledger() *Ledger {
	if r == nil {
		return nil
	}
	return &r.led
}

// Begin opens the request context for one memory request that hardware
// thread issued at issue. Whether the request is sampled is decided here;
// until the matching End, Phase and Op calls attribute into this request.
func (r *Recorder) Begin(kind Kind, thread int, addr uint64, issue units.Time) {
	if r == nil {
		return
	}
	idx := r.seen
	r.seen++
	if idx%r.period != r.offset {
		return
	}
	r.open = true
	r.kind = kind
	r.thread = thread
	r.addr = addr
	r.start = issue
	r.curr = [NumPhases]phaseAgg{}
	r.currOps = [NumOps]uint64{}
}

// Sampling reports whether a sampled request context is currently open —
// the cheap pre-check for callers that would otherwise compute span
// boundaries only to have Phase discard them.
func (r *Recorder) Sampling() bool {
	return r != nil && r.open
}

// Phase attributes the [start, end] segment of the open sampled request to
// phase p; a captured span lands on the phase's own track. Outside an open
// context (or on the nil recorder) it is a no-op.
func (r *Recorder) Phase(p Phase, start, end units.Time) {
	if r == nil || !r.open || int(p) >= NumPhases {
		return
	}
	r.phase(p, phaseTrack(p), start, end)
}

// BankPhase is Phase for a device phase served by bank: it feeds the same
// aggregates, and a captured span lands on the bank's track.
func (r *Recorder) BankPhase(p Phase, bank int, start, end units.Time) {
	if r == nil || !r.open || int(p) >= NumPhases {
		return
	}
	r.phase(p, bankTrack(bank), start, end)
}

func (r *Recorder) phase(p Phase, track int32, start, end units.Time) {
	d := end.Sub(start)
	r.curr[p].count++
	r.curr[p].total += d
	r.keep(p.String(), track, start, d)
}

// keep captures one span when capture is on.
func (r *Recorder) keep(name string, track int32, start units.Time, dur units.Duration) {
	if r.maxSpans == 0 {
		return
	}
	if len(r.spans) >= r.maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{name: name, track: track, start: start, dur: dur, addr: r.addr})
}

// Op counts one functional operation performed for the open sampled request.
func (r *Recorder) Op(op Op) {
	if r == nil || !r.open || int(op) >= NumOps {
		return
	}
	r.currOps[op]++
}

// End closes the request context opened by Begin, folding the request's
// phases into the per-kind totals; a captured span covers the whole request
// on its thread's track. done is the request's completion time.
func (r *Recorder) End(done units.Time) {
	if r == nil || !r.open {
		return
	}
	r.open = false
	k := r.kind
	d := done.Sub(r.start)
	r.sampled[k]++
	r.total[k] += d
	for p := 0; p < NumPhases; p++ {
		r.phases[k][p].count += r.curr[p].count
		r.phases[k][p].total += r.curr[p].total
	}
	for o := 0; o < NumOps; o++ {
		r.ops[k][o] += r.currOps[o]
	}
	r.keep(k.String(), requestTrack(r.thread), r.start, d)
}

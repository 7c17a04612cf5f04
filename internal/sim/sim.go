// Package sim is the harness that wires a workload generator, the CPU
// timing model, an optional CPU cache hierarchy, and one secure-NVM scheme
// into a run, producing the per-application measurements every experiment
// consumes.
package sim

import (
	"fmt"

	"dewrite/internal/attr"
	"dewrite/internal/baseline"
	"dewrite/internal/cache"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/cpu"
	"dewrite/internal/fault"
	"dewrite/internal/nvm"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// Memory is the request interface every secure-NVM scheme implements
// (core.Controller, baseline.SecureNVM, baseline.Shredder). ReadInto copies
// the plaintext into dst, which must hold one line. A nil dst is a
// timing-only read, like nvm.Device.ReadInto's: the completion time and
// every counter are as for a line, but nothing is copied out or decrypted.
// The harness never looks at what it reads, so its reads are timing-only.
type Memory interface {
	Write(now units.Time, logical uint64, data []byte) units.Time
	ReadInto(now units.Time, logical uint64, dst []byte) units.Time
}

// deviceHolder is implemented by schemes that expose their NVM device.
type deviceHolder interface {
	Device() *nvm.Device
}

// DeviceOf returns the scheme's NVM device, or nil if it does not expose one.
func DeviceOf(mem Memory) *nvm.Device {
	if h, ok := mem.(deviceHolder); ok {
		return h.Device()
	}
	if sh, ok := mem.(*baseline.Shredder); ok {
		return sh.Inner().Device()
	}
	return nil
}

// attrSetter is implemented by schemes that can attach an attribution
// recorder (core.Controller, baseline.SecureNVM, baseline.Shredder).
type attrSetter interface {
	SetAttr(*attr.Recorder)
}

// AttachAttr wires the attribution recorder into mem's internal components,
// if mem supports it. It reports whether the scheme accepted the recorder.
func AttachAttr(mem Memory, rec *attr.Recorder) bool {
	if as, ok := mem.(attrSetter); ok {
		as.SetAttr(rec)
		return true
	}
	return false
}

// Scheme identifies a memory scheme for construction and reporting.
type Scheme int

// The schemes the experiments compare.
const (
	SchemeDeWrite Scheme = iota
	SchemeDirect
	SchemeParallel
	SchemeSecureNVM
	SchemeShredder
)

// String returns the scheme's display name.
func (s Scheme) String() string {
	switch s {
	case SchemeDeWrite:
		return "DeWrite"
	case SchemeDirect:
		return "Direct"
	case SchemeParallel:
		return "Parallel"
	case SchemeSecureNVM:
		return "SecureNVM"
	case SchemeShredder:
		return "Shredder"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// NewMemory constructs a fresh memory of the given scheme over dataLines.
func NewMemory(s Scheme, dataLines uint64, cfg config.Config) Memory {
	return NewMemoryWith(s, dataLines, cfg, fault.Config{}, false)
}

// NewMemoryWith is NewMemory with the fault layer armed (when faults is
// enabled) and, with track set, crash-consistency tracking so the memory
// supports Crash() mid-run.
func NewMemoryWith(s Scheme, dataLines uint64, cfg config.Config, faults fault.Config, track bool) Memory {
	mode, ok := map[Scheme]core.Mode{
		SchemeDeWrite:  core.ModeDeWrite,
		SchemeDirect:   core.ModeDirect,
		SchemeParallel: core.ModeParallel,
	}[s]
	if ok {
		return core.New(core.Options{
			DataLines: dataLines, Config: cfg, Mode: mode,
			Faults: faults, TrackPersist: track,
		})
	}
	switch s {
	case SchemeSecureNVM:
		m := baseline.NewSecureNVM(dataLines, cfg)
		if faults.Enabled() {
			m.EnableFaults(faults)
		}
		if track {
			m.EnableCrashTracking()
		}
		return m
	case SchemeShredder:
		m := baseline.NewShredder(dataLines, cfg)
		if faults.Enabled() {
			m.EnableFaults(faults)
		}
		if track {
			m.EnableCrashTracking()
		}
		return m
	default:
		panic(fmt.Sprintf("sim: unknown scheme %d", s))
	}
}

// crashRecover cuts the power on mem without flushing its metadata caches
// and returns the recovered memory plus the scrub's report. Schemes that
// cannot crash (opaque memories) return an error.
func crashRecover(mem Memory) (Memory, *fault.RecoveryReport, error) {
	switch m := mem.(type) {
	case *core.Controller:
		nc, rep, err := m.Crash()
		return nc, rep, err
	case *baseline.SecureNVM:
		ns, rep, err := m.Crash()
		return ns, rep, err
	case *baseline.Shredder:
		ns, rep, err := m.Crash()
		return ns, rep, err
	default:
		return nil, nil, fmt.Errorf("sim: scheme %T does not support crash points", mem)
	}
}

// Options configures a run.
type Options struct {
	// Requests is the number of memory requests to drive. Required.
	Requests int
	// Warmup is the number of leading requests excluded from every
	// measurement (the paper warms caches for 10 M instructions before
	// measuring). Must be below Requests.
	Warmup int
	// Seed seeds the workload generator.
	Seed uint64
	// Hierarchy optionally interposes a CPU cache hierarchy so that only
	// misses and write-backs reach the memory scheme.
	Hierarchy *cache.Hierarchy
	// Timeline, when non-nil, collects the epoch time series: the collector
	// is ticked once per request and the closed epochs land in
	// Result.Timeline. It is purely observational — a run's other
	// measurements are identical with and without it. Collectors are
	// per-run; do not share one across runs.
	Timeline *timeline.Collector
	// Prepared, when non-nil, replays a pre-generated request stream instead
	// of running a generator: the run consumes Prepared.Requests verbatim and
	// takes its generator ground truth from the prepared snapshots. It must
	// have been built by Prepare with the same Requests, Warmup and profile;
	// Seed is ignored. Several runs (one per scheme) may share one Prepared
	// concurrently — the stream is immutable.
	Prepared *Prepared
	// Attr, when non-nil, is the attribution recorder: the run opens a
	// request context around every memory request reaching the scheme
	// (deterministic every-Nth sampling decides which contexts record
	// phases) and the scheme's device records every physical line write's
	// cause into the recorder's ledger. With span capture on, the sampled
	// requests and their phases also become Chrome-trace spans. Purely
	// observational, like Timeline; recorders are per-run. The closed
	// recorder's report lands in Result.Attribution.
	Attr *attr.Recorder
	// CrashAt, when non-zero, cuts power after that many requests (1-based,
	// must be ≤ Requests) without flushing metadata caches, recovers, and
	// finishes the run on the recovered memory. The memory must have been
	// built with crash tracking (see NewMemoryWith). Post-crash device
	// counters restart from the recovered state; Result.Crash carries the
	// recovery report.
	CrashAt uint64
	// Faults arms deterministic device-fault injection on memories built by
	// RunScheme; ignored when the caller constructs the memory itself.
	Faults fault.Config
}

// Prepared is one application's request stream materialized once so every
// scheme can replay the identical sequence without regenerating (and
// re-allocating) it. The stream and its payloads are immutable after Prepare
// returns and safe for concurrent replay.
type Prepared struct {
	App      string
	Requests []trace.Request
	Warmup   int
	GenWarm  workload.Stats // generator counters at the warmup boundary
	GenFinal workload.Stats // generator counters after the full stream

	dups []uint64 // one ground-truth duplicate bit per request (Duplicate)
}

// Duplicate reports request i's ground-truth duplicate bit: whether the
// generator counted it as a duplicate, a write whose content was resident.
// It is false for every request of a stream not built by Prepare.
func (p *Prepared) Duplicate(i int) bool {
	return i/64 < len(p.dups) && p.dups[i/64]>>(i%64)&1 != 0
}

// Prepare materializes opts.Requests generator requests for the profile,
// snapshotting the ground-truth counters exactly where Run would read them
// (at the warmup boundary and at the end), so a replayed run's Result is
// byte-identical to a generator-driven one, and recording each request's
// duplicate bit: the step in the generator's duplicate count.
func Prepare(prof workload.Profile, opts Options) *Prepared {
	if opts.Requests <= 0 {
		panic("sim: non-positive request count")
	}
	if opts.Warmup < 0 || opts.Warmup >= opts.Requests {
		panic("sim: warmup must be in [0, Requests)")
	}
	gen := workload.NewGenerator(prof, opts.Seed)
	p := &Prepared{
		App:      prof.Name,
		Warmup:   opts.Warmup,
		Requests: make([]trace.Request, opts.Requests),
		dups:     make([]uint64, (opts.Requests+63)/64),
	}
	var dups uint64
	for i := range p.Requests {
		if i == opts.Warmup {
			p.GenWarm = gen.Stats()
		}
		p.Requests[i] = gen.Next()
		if d := gen.Stats().Duplicates; d != dups {
			p.dups[i/64] |= 1 << (i % 64)
			dups = d
		}
	}
	p.GenFinal = gen.Stats()
	return p
}

// Result is the measurement of one (application, scheme) run.
type Result struct {
	App    string
	Scheme string

	Requests  uint64
	MemWrites uint64 // write requests reaching the memory scheme
	MemReads  uint64

	Gen workload.Stats // generator ground truth

	Instructions uint64
	Cycles       uint64
	IPC          float64
	Elapsed      units.Duration

	MeanWriteLat units.Duration
	MeanReadLat  units.Duration
	P50WriteLat  units.Duration
	P95WriteLat  units.Duration
	P99WriteLat  units.Duration
	P50ReadLat   units.Duration
	P95ReadLat   units.Duration
	P99ReadLat   units.Duration
	WriteLatSum  units.Duration
	ReadLatSum   units.Duration

	EnergyPJ float64
	Device   nvm.Stats

	// Timeline is the epoch time series, nil unless Options.Timeline was set.
	Timeline *timeline.Report

	// Attribution is the per-request causal-tracing and write-provenance
	// block, nil unless Options.Attr was set.
	Attribution *attr.Report

	// Crash is the recovery scrub's report, nil unless Options.CrashAt fired.
	Crash *fault.RecoveryReport

	// Sharding describes the shard partition, nil unless the run executed
	// through RunSharded with more than one shard.
	Sharding *ShardingReport

	// finalMem is the memory that finished the run — the crash-recovered
	// successor when CrashAt fired, the original otherwise.
	finalMem Memory
}

// FinalMemory returns the memory that finished the run: after a crash point
// the recovered controller, otherwise the one passed to Run. Reports must be
// built from this, not from the memory handed to Run.
func (r Result) FinalMemory() Memory { return r.finalMem }

// WithoutMemory returns a copy of the result that does not hold the final
// memory, for callers that keep results longer than the memory is needed:
// a kept memory keeps its controller and device alive.
func (r Result) WithoutMemory() Result {
	r.finalMem = nil
	return r
}

// Run drives opts.Requests requests through mem and returns the
// measurements. Without opts.Prepared the requests come from a generator
// running on its own goroutine (workload.Stream), so generation overlaps the
// memory model; the result is the same as a replay of the prepared stream.
func Run(app string, schemeName string, mem Memory, prof workload.Profile, opts Options) Result {
	if opts.Requests <= 0 {
		panic("sim: non-positive request count")
	}
	if opts.Warmup < 0 || opts.Warmup >= opts.Requests {
		panic("sim: warmup must be in [0, Requests)")
	}
	if opts.CrashAt > uint64(opts.Requests) {
		panic("sim: CrashAt beyond Requests")
	}
	// Requests come from one source: the prepared slice, or a stream that
	// generates them on another goroutine, refilling reqs chunk by chunk.
	prep := opts.Prepared
	var reqs []trace.Request
	var stream *workload.Stream
	if prep != nil {
		prep.check(opts)
		reqs = prep.Requests
	} else {
		gen := workload.NewGenerator(prof, opts.Seed)
		// Without a hierarchy no payload outlives its chunk, so the stream
		// copies payloads into its chunks' reused blocks instead of keeping
		// one copy per write.
		gen.SetRecycle(opts.Hierarchy == nil)
		stream = workload.NewStream(gen, opts.Requests, opts.Warmup)
		// Deferred, so a run that panics (a crash point on an untracked
		// memory) does not strand the producer.
		defer stream.Close()
	}

	rec := opts.Attr
	if rec.Enabled() {
		AttachAttr(mem, rec)
	}
	tl := opts.Timeline
	d := &driver{mem: mem, machine: cpu.NewMachine(prof.Threads), rec: rec, countZeros: tl.Enabled()}
	if opts.Hierarchy != nil {
		d.hierarchy = opts.Hierarchy
		d.shadow = map[uint64][]byte{}
	}

	// The timeline source combines the scheme's own epoch sampler (when it
	// has one; after a crash point, the recovered memory's) with the
	// harness-level zero-write count.
	var tlSrc timeline.Sampler
	if tl.Enabled() {
		tlSrc = timeline.SamplerFunc(func(e *timeline.Epoch, now units.Time) {
			if ss, ok := d.mem.(timeline.Sampler); ok {
				ss.SampleEpoch(e, now)
			}
			e.ZeroWrites = d.zeroWrites
		})
	}

	res := Result{App: app, Scheme: schemeName}
	for i := 0; i < opts.Requests; i++ {
		if len(reqs) == 0 {
			reqs = stream.Next()
		}
		d.step(&reqs[0], reqs[0].Addr, i >= opts.Warmup)
		reqs = reqs[1:]
		tl.Tick(d.lastDone, uint64(i+1), tlSrc)
		if opts.CrashAt != 0 && uint64(i+1) == opts.CrashAt {
			res.Crash = d.crash(opts.CrashAt)
		}
	}

	tl.Finish(d.lastDone, uint64(opts.Requests), tlSrc)
	res.Timeline = tl.Report()
	res.Attribution = rec.Report()
	if prep != nil {
		res.Gen = genDelta(prep.GenWarm, prep.GenFinal)
	} else {
		res.Gen = genDelta(stream.Stats())
	}
	res.fill(d)
	res.finalMem = d.mem
	return res
}

// check panics unless p was prepared for opts' request count and warmup.
func (p *Prepared) check(opts Options) {
	if len(p.Requests) != opts.Requests {
		panic("sim: prepared stream length does not match Requests")
	}
	if p.Warmup != opts.Warmup {
		panic("sim: prepared warmup does not match Warmup")
	}
}

// driver is the request step every run shares: Run drives one, RunSharded
// one per shard. It issues each request on the CPU model, drives the memory
// (through the cache hierarchy when there is one), retires the request, and
// keeps the counts and latencies Result.fill reads.
type driver struct {
	mem       Memory
	machine   *cpu.Machine
	rec       *attr.Recorder
	hierarchy *cache.Hierarchy
	shadow    map[uint64][]byte // line contents for hierarchy write-backs

	// countZeros counts all-zero write payloads for the timeline, which
	// the schemes other than Shredder don't track themselves.
	countZeros bool
	zeroWrites uint64

	measuring                     bool // the current request is past the warmup
	writeLat, readLat             stats.Latency
	lastDone                      units.Time
	requests, memWrites, memReads uint64

	// The warmup baseline, captured at the first measured request.
	measured        bool
	instr0, cycles0 uint64
	dev0            nvm.Stats
}

// step drives one request: the thread runs the request's gap of non-memory
// instructions, then the request reaches the memory at addr (its line in
// the memory's own address space), directly or through the cache
// hierarchy. measuring marks a request past the warmup; the first one
// captures the measurement baseline.
func (d *driver) step(req *trace.Request, addr uint64, measuring bool) {
	if measuring && !d.measured {
		d.measured = true
		d.instr0 = d.machine.Instructions()
		d.cycles0 = d.machine.Cycles()
		if dev := DeviceOf(d.mem); dev != nil {
			d.dev0 = dev.Stats()
		}
	}
	d.measuring = measuring
	th := req.Thread
	d.machine.Execute(th, req.Gap)
	if measuring {
		d.requests++
	}
	if d.hierarchy == nil {
		if req.Op == trace.Write {
			d.write(th, addr, req.Data)
		} else {
			d.read(th, addr, false)
		}
		return
	}

	// Cache-filtered path: only misses and dirty write-backs reach NVM.
	store := req.Op == trace.Write
	if store {
		d.shadow[addr] = req.Data
	}
	acc := d.hierarchy.Access(addr, store)
	d.machine.Delay(th, acc.Latency)
	if acc.MemFill {
		d.read(th, addr, true)
	}
	for _, wb := range acc.Writebacks {
		data := d.shadow[wb]
		if data == nil {
			data = zeroLine[:]
		}
		d.write(th, wb, data)
	}
}

// write is one ordered persistent write: the thread stalls on its persist
// window, then issues; the write occupies its bank while the thread runs
// ahead, so later requests to that bank queue behind it — the paper's
// contention mechanism.
func (d *driver) write(th int, addr uint64, data []byte) {
	issue := d.machine.IssueWrite(th)
	if d.countZeros && config.IsZeroLine(data) {
		d.zeroWrites++
	}
	d.rec.Begin(attr.KindWrite, th, addr, issue)
	done := d.mem.Write(issue, addr, data)
	d.rec.End(done)
	d.machine.RetireWrite(th, done)
	if done > d.lastDone {
		d.lastDone = done
	}
	if d.measuring {
		d.writeLat.Observe(done.Sub(issue))
		d.memWrites++
	}
}

// read is one load. A plain load joins the thread's load window; a cache
// fill (fill set) issues at the thread's current time and stalls it until
// the line returns.
func (d *driver) read(th int, addr uint64, fill bool) {
	var issue units.Time
	if fill {
		issue = d.machine.Now(th)
	} else {
		issue = d.machine.IssueRead(th)
	}
	d.rec.Begin(attr.KindRead, th, addr, issue)
	done := d.mem.ReadInto(issue, addr, nil)
	d.rec.End(done)
	if fill {
		d.machine.CompleteRead(th, done)
	} else {
		d.machine.RetireRead(th, done)
	}
	if done > d.lastDone {
		d.lastDone = done
	}
	if d.measuring {
		d.readLat.Observe(done.Sub(issue))
		d.memReads++
	}
}

// crash swaps the memory for its crash-recovered successor mid-run and
// returns the recovery report, stamped with the crash point. Recovery is
// instantaneous in simulated time (the scrub runs at boot); the CPU machine
// state deliberately survives — the crash model covers the memory system,
// not the cores. The recovered device's counters restart from the loaded
// state, so the warmup baseline is re-zeroed: pre-crash device traffic is
// lost from the measurement, exactly as it is lost to the power cut.
func (d *driver) crash(at uint64) *fault.RecoveryReport {
	nm, rep, err := crashRecover(d.mem)
	if err != nil {
		panic(fmt.Sprintf("sim: crash point at %d: %v (build the memory with NewMemoryWith track=true)", at, err))
	}
	rep.CrashedAt = at
	d.mem = nm
	if d.rec.Enabled() {
		// The same recorder survives the power cycle, so the attribution
		// ledger stays cumulative while the device's counters restart.
		AttachAttr(d.mem, d.rec)
	}
	d.dev0 = nvm.Stats{}
	return rep
}

// window returns what the driver measured past its warmup baseline: the
// instructions, the cycles and the device counters.
func (d *driver) window() (instr, cycles uint64, dev nvm.Stats) {
	if !d.measured {
		return 0, 0, nvm.Stats{}
	}
	instr = d.machine.Instructions() - d.instr0
	cycles = d.machine.Cycles() - d.cycles0
	if nd := DeviceOf(d.mem); nd != nil {
		dev = devDelta(nd.Stats(), d.dev0)
	}
	return instr, cycles, dev
}

// fill sets r's measurements from the drivers that ran its requests: one
// for a sequential run, one per shard for a sharded one. Counts and
// instructions add and Cycles is the slowest driver's, the makespan. The
// latency histograms merge (same bucket geometry, so the merged quantiles
// keep the sequential error bound) and the device counters merge by
// mergeDeviceStats.
func (r *Result) fill(ds ...*driver) {
	var writeLat, readLat stats.Latency
	for _, d := range ds {
		instr, cycles, dev := d.window()
		r.Requests += d.requests
		r.MemWrites += d.memWrites
		r.MemReads += d.memReads
		r.Instructions += instr
		r.Cycles = max(r.Cycles, cycles)
		if len(ds) == 1 {
			// As measured: merging would re-derive the mean waits
			// through floating point.
			r.Device = dev
		} else {
			mergeDeviceStats(&r.Device, dev)
		}
		writeLat.Merge(&d.writeLat)
		readLat.Merge(&d.readLat)
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.Elapsed = units.Duration(r.Cycles) * units.NewClock(config.CPUHz).Period()
	r.MeanWriteLat = writeLat.Mean()
	r.MeanReadLat = readLat.Mean()
	r.P50WriteLat = writeLat.P50()
	r.P95WriteLat = writeLat.P95()
	r.P99WriteLat = writeLat.P99()
	r.P50ReadLat = readLat.P50()
	r.P95ReadLat = readLat.P95()
	r.P99ReadLat = readLat.P99()
	r.WriteLatSum = writeLat.Sum()
	r.ReadLatSum = readLat.Sum()
	r.EnergyPJ = r.Device.EnergyPJ
}

// zeroLine is the all-zero payload used for clean-miss write-backs; schemes
// never mutate request payloads, so one shared line suffices.
var zeroLine [config.LineSize]byte

// genDelta subtracts the warmup baseline from the final generator counters.
func genDelta(warm, final workload.Stats) workload.Stats {
	return workload.Stats{
		Writes:     final.Writes - warm.Writes,
		Reads:      final.Reads - warm.Reads,
		Duplicates: final.Duplicates - warm.Duplicates,
		ZeroWrites: final.ZeroWrites - warm.ZeroWrites,
	}
}

// devDelta subtracts the warmup baseline from the device counters; the mean
// and percentile waits remain whole-run values.
func devDelta(a, b nvm.Stats) nvm.Stats {
	return nvm.Stats{
		Reads:         a.Reads - b.Reads,
		RowHits:       a.RowHits - b.RowHits,
		Writes:        a.Writes - b.Writes,
		BitsFlipped:   a.BitsFlipped - b.BitsFlipped,
		BitsWritten:   a.BitsWritten - b.BitsWritten,
		EnergyPJ:      a.EnergyPJ - b.EnergyPJ,
		MeanReadWait:  a.MeanReadWait,
		MeanWriteWait: a.MeanWriteWait,
		P99ReadWait:   a.P99ReadWait,
		P99WriteWait:  a.P99WriteWait,
	}
}

// RunScheme is the common construct-and-run helper: it builds a fresh memory
// of the scheme sized to the profile's working set and drives it.
func RunScheme(s Scheme, prof workload.Profile, cfg config.Config, opts Options) (Result, Memory) {
	mem := NewMemoryWith(s, prof.WorkingSetLines, cfg, opts.Faults, opts.CrashAt != 0)
	res := Run(prof.Name, s.String(), mem, prof, opts)
	return res, res.FinalMemory()
}

// WriteSpeedup returns base's total write latency over r's (Figure 14).
func WriteSpeedup(r, base Result) float64 {
	return stats.Speedup(base.WriteLatSum, r.WriteLatSum)
}

// ReadSpeedup returns base's total read latency over r's (Figure 16).
func ReadSpeedup(r, base Result) float64 {
	return stats.Speedup(base.ReadLatSum, r.ReadLatSum)
}

// RelativeIPC returns r's IPC over base's (Figure 17).
func RelativeIPC(r, base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return r.IPC / base.IPC
}

// RelativeEnergy returns r's energy over base's (Figure 19).
func RelativeEnergy(r, base Result) float64 {
	if base.EnergyPJ == 0 {
		return 0
	}
	return r.EnergyPJ / base.EnergyPJ
}

// RunTrace replays a materialized trace through mem with the same CPU model
// Run uses, returning the measurements. The trace's Gap/Thread fields drive
// the timing; thread indices must be dense starting at zero.
func RunTrace(tr *trace.Trace, mem Memory, warmup int) Result {
	prof := workload.Profile{Name: tr.Name, Threads: max(tr.Summarize().Threads, 1)}
	prep := &Prepared{App: tr.Name, Requests: tr.Requests, Warmup: warmup}
	return Run(tr.Name, "trace", mem, prof, Options{Requests: len(tr.Requests), Warmup: warmup, Prepared: prep})
}

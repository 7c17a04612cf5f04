package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dewrite/internal/attr"
	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/cpu"
	"dewrite/internal/hashes"
	"dewrite/internal/nvm"
	"dewrite/internal/shard"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// Sharded execution: the controller/device boundary is partitioned into N
// shards, each owning its slice of the address space — its own controller
// (dedup tables, metadata caches, bank queues, wear state) over the lines
// striped onto it — and the shards advance in bulk-synchronous epochs so the
// run is deterministic for any worker count.
//
// Within an epoch (a fixed span of global request indices) each shard
// processes its own subsequence of the prepared stream in order, touching
// only its own state plus the cross-shard fingerprint directory, whose reads
// answer from the generation frozen at the previous barrier and whose writes
// land in commutative pending buffers. At the barrier the directory folds
// the epoch's deltas, the timeline collector ticks once with the merged
// view, and the next epoch begins. Shards therefore never observe each
// other's in-epoch progress, which is what makes the result a pure function
// of (stream, config, shard count): scheduling worker goroutines differently
// cannot change a single counter.
//
// Shard count 1 bypasses all of this and runs the sequential path, so its
// output is byte-identical to RunScheme.

// DefaultEpochRequests is the barrier period of the sharded run: the number
// of global request indices per epoch. Smaller epochs tighten cross-shard
// directory freshness; larger ones amortize barrier cost.
const DefaultEpochRequests = 1024

// ShardedOptions configures a sharded run. The embedded Options keep their
// sequential meaning, with restrictions: Hierarchy, CrashAt and an Attr
// recorder capturing spans are not supported at Shards > 1 (the cache
// filter, the crash model and the trace are whole-machine, not per-shard),
// and Attr is treated as a request for attribution — the run builds one
// recorder per shard with the same sample period and merges the reports.
type ShardedOptions struct {
	Options

	// Shards is the number of controller shards. 0 or 1 selects the
	// sequential path.
	Shards int
	// Workers bounds the goroutines driving shards within an epoch; <= 0
	// uses runtime.GOMAXPROCS(0). The result is identical for any value.
	Workers int
	// EpochRequests is the barrier period in global request indices; <= 0
	// selects DefaultEpochRequests.
	EpochRequests int

	// OnBarrier, when non-nil, observes every epoch barrier with each
	// shard's simulated stall time: the gap between that shard's last
	// completion and the slowest shard's, i.e. how long the shard would
	// have idled waiting at the barrier. At least one entry is always zero
	// (the slowest shard never waits). Observational only — the hook runs
	// on the coordinating goroutine after the directory advance, its
	// values are pure functions of (config, seed), and it must not mutate
	// run state; the slice is reused across calls, so copy it to retain.
	// epoch is 1-based (the epoch just closed), so the final call's epoch
	// equals the report's Sharding.Epochs. Reports are byte-identical with
	// the hook set or nil.
	OnBarrier func(epoch uint64, stalls []units.Duration)
}

// ShardStat is one shard's slice of a sharded run, reported so the balance
// of the partition is visible.
type ShardStat struct {
	Shard     int    `json:"shard"`
	Lines     uint64 `json:"lines"`
	Banks     int    `json:"banks"`
	Requests  uint64 `json:"requests"`
	MemWrites uint64 `json:"mem_writes"`
	MemReads  uint64 `json:"mem_reads"`
	DevReads  uint64 `json:"dev_reads"`
	DevWrites uint64 `json:"dev_writes"`
	Cycles    uint64 `json:"cycles"`
}

// ShardingReport is the sharding block of a run report (schema v5), present
// only for runs executed with Shards > 1.
type ShardingReport struct {
	Shards        int `json:"shards"`
	EpochRequests int `json:"epoch_requests"`
	// Epochs is the number of barriers crossed (== the directory's advance
	// count).
	Epochs uint64 `json:"epochs"`
	// CrossShardDupHits counts measured writes whose fingerprint was live on
	// some other shard per the frozen directory generation — the duplication
	// the address partition splits across shards, observable but not
	// eliminable by the shard-local tables.
	CrossShardDupHits uint64      `json:"cross_shard_dup_hits"`
	Directory         shard.Stats `json:"directory"`
	PerShard          []ShardStat `json:"per_shard"`
}

// shardState is one shard's private slice of the run. Only its owning
// worker touches it between barriers.
type shardState struct {
	id    int
	lines uint64
	banks int

	mem     Memory
	ri      readerInto
	readBuf [config.LineSize]byte
	machine *cpu.Machine
	rec     *attr.Recorder
	sampler timeline.Sampler

	writeLat, readLat stats.Latency
	lastDone          units.Time
	requests          uint64
	memWrites         uint64
	memReads          uint64
	zeroWrites        uint64
	crossDup          uint64

	measured       bool // warmup baseline captured
	instr0, cycle0 uint64
	dev0           nvm.Stats
}

// RunSharded drives a prepared request stream through Shards partitioned
// controllers of the scheme and returns the merged measurements. At Shards
// <= 1 it is exactly RunScheme (byte-identical Result and report); above,
// the Result carries a Sharding block, FinalMemory is nil, and the merged
// counters keep the sequential invariants: attribution cause writes still
// sum exactly to device line writes, generator ground truth is the stream's
// own, and per-shard requests/writes/reads sum to the stream totals.
//
// Latency percentiles merge from the per-shard histograms (same bucket
// geometry, so the merged quantiles have the sequential error bound).
// Cycles is the maximum shard cycle count — the makespan of the partition —
// and IPC is total instructions over that makespan. Device mean waits merge
// weighted by per-shard operation counts; P99 waits take the per-shard
// maximum, a conservative upper bound.
func RunSharded(s Scheme, prof workload.Profile, cfg config.Config, opts ShardedOptions) Result {
	if opts.Shards <= 1 {
		res, _ := RunScheme(s, prof, cfg, opts.Options)
		return res
	}
	if opts.Hierarchy != nil {
		panic("sim: sharded runs do not support a CPU cache hierarchy")
	}
	if opts.Attr.Capturing() {
		panic("sim: sharded runs do not support span capture")
	}
	if opts.CrashAt != 0 {
		panic("sim: sharded runs do not support crash points")
	}

	n := opts.Shards
	prep := opts.Prepared
	if prep == nil {
		prep = Prepare(prof, opts.Options)
	} else {
		if len(prep.Requests) != opts.Requests {
			panic("sim: prepared stream length does not match Requests")
		}
		if prep.Warmup != opts.Warmup {
			panic("sim: prepared warmup does not match Warmup")
		}
	}
	epochLen := opts.EpochRequests
	if epochLen <= 0 {
		epochLen = DefaultEpochRequests
	}

	router := shard.NewRouter(n)
	// Each shard owns an equal slice of the device's banks (at least one),
	// on a single rank: the partition divides the device, it does not
	// replicate it.
	shardCfg := cfg
	shardCfg.NVM.Ranks = 1
	shardCfg.NVM.BanksPerRank = cfg.NVM.Banks() / n
	if shardCfg.NVM.BanksPerRank < 1 {
		shardCfg.NVM.BanksPerRank = 1
	}

	fingerMask := ^uint32(0)
	if bits := cfg.Dedup.HashSizeBits; bits > 0 && bits < 32 {
		fingerMask = uint32(1)<<bits - 1
	}

	var dir *shard.Directory
	shards := make([]*shardState, n)
	for i := 0; i < n; i++ {
		sh := &shardState{id: i, lines: router.LinesFor(i, prof.WorkingSetLines), banks: shardCfg.NVM.Banks()}
		faults := opts.Faults
		if faults.Enabled() {
			faults.Seed += uint64(i)
		}
		sh.mem = NewMemoryWith(s, sh.lines, shardCfg, faults, false)
		sh.ri, _ = sh.mem.(readerInto)
		sh.machine = cpu.NewMachine(prof.Threads)
		if ctrl, ok := sh.mem.(*core.Controller); ok {
			if dir == nil {
				dir = shard.NewDirectory(n)
			}
			d, id := dir, i
			ctrl.Tables().SetPublish(func(h uint32, delta int) { d.Publish(id, h, delta) })
		}
		if opts.Attr.Enabled() {
			sh.rec = attr.NewRecorder(int(opts.Attr.SamplePeriod()), opts.Seed+uint64(i))
			AttachAttr(sh.mem, sh.rec)
		}
		if opts.Timeline.Enabled() {
			sh.sampler, _ = sh.mem.(timeline.Sampler)
		}
		shards[i] = sh
	}

	tl := opts.Timeline
	var tlSrc timeline.Sampler
	if tl.Enabled() {
		tlSrc = timeline.SamplerFunc(func(e *timeline.Epoch, now units.Time) {
			mergeEpoch(e, now, shards, prof.WorkingSetLines)
		})
	}

	warmup := opts.Warmup
	process := func(sh *shardState, start, end int) {
		for i := start; i < end; i++ {
			req := &prep.Requests[i]
			if router.ShardOf(req.Addr) != sh.id {
				continue
			}
			if i >= warmup && !sh.measured {
				sh.measured = true
				sh.instr0 = sh.machine.Instructions()
				sh.cycle0 = sh.machine.Cycles()
				if dev := DeviceOf(sh.mem); dev != nil {
					sh.dev0 = dev.Stats()
				}
			}
			measuring := i >= warmup
			th := req.Thread
			sh.machine.Execute(th, req.Gap)
			if measuring {
				sh.requests++
			}
			local := router.Local(req.Addr)
			if req.Op == trace.Write {
				issue := sh.machine.IssueWrite(th)
				if tl.Enabled() && baseline.IsZeroLine(req.Data) {
					sh.zeroWrites++
				}
				if dir != nil && measuring {
					if dir.HeldElsewhere(hashLine(req.Data)&fingerMask, sh.id) {
						sh.crossDup++
					}
				}
				sh.rec.Begin(attr.KindWrite, th, local, issue)
				done := sh.mem.Write(issue, local, req.Data)
				sh.rec.End(done)
				sh.machine.RetireWrite(th, done)
				if done > sh.lastDone {
					sh.lastDone = done
				}
				if measuring {
					sh.writeLat.Observe(done.Sub(issue))
					sh.memWrites++
				}
			} else {
				issue := sh.machine.IssueRead(th)
				sh.rec.Begin(attr.KindRead, th, local, issue)
				var done units.Time
				if sh.ri != nil {
					done = sh.ri.ReadInto(issue, local, sh.readBuf[:])
				} else {
					_, done = sh.mem.Read(issue, local)
				}
				sh.rec.End(done)
				sh.machine.RetireRead(th, done)
				if done > sh.lastDone {
					sh.lastDone = done
				}
				if measuring {
					sh.readLat.Observe(done.Sub(issue))
					sh.memReads++
				}
			}
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var epochs uint64
	var stallBuf []units.Duration // OnBarrier scratch, reused across barriers
	for start := 0; start < len(prep.Requests); start += epochLen {
		end := start + epochLen
		if end > len(prep.Requests) {
			end = len(prep.Requests)
		}
		if workers <= 1 {
			for _, sh := range shards {
				process(sh, start, end)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						process(shards[i], start, end)
					}
				}()
			}
			wg.Wait()
		}
		if dir != nil {
			dir.Advance()
		}
		epochs++
		if opts.OnBarrier != nil {
			maxDone := maxLastDone(shards)
			if stallBuf == nil {
				stallBuf = make([]units.Duration, n)
			}
			for i, sh := range shards {
				stallBuf[i] = maxDone.Sub(sh.lastDone)
			}
			opts.OnBarrier(epochs, stallBuf)
		}
		if tl.Enabled() {
			tl.Tick(maxLastDone(shards), uint64(end), tlSrc)
		}
	}

	res := Result{App: prof.Name, Scheme: s.String()}
	res.Gen = genDelta(prep.GenFinal, prep.GenWarm)

	var writeLat, readLat stats.Latency
	var dev nvm.Stats
	var crossDup uint64
	rep := &ShardingReport{Shards: n, EpochRequests: epochLen, Epochs: epochs}
	attrReports := make([]*attr.Report, 0, n)
	for _, sh := range shards {
		res.Requests += sh.requests
		res.MemWrites += sh.memWrites
		res.MemReads += sh.memReads
		crossDup += sh.crossDup
		writeLat.Merge(&sh.writeLat)
		readLat.Merge(&sh.readLat)

		var instr, cycles uint64
		var shardDev nvm.Stats
		if sh.measured {
			instr = sh.machine.Instructions() - sh.instr0
			cycles = sh.machine.Cycles() - sh.cycle0
			if d := DeviceOf(sh.mem); d != nil {
				shardDev = devDelta(d.Stats(), sh.dev0)
			}
		}
		res.Instructions += instr
		if cycles > res.Cycles {
			res.Cycles = cycles
		}
		mergeDeviceStats(&dev, shardDev)

		if sh.rec.Enabled() {
			r := sh.rec.Report()
			padBankWrites(r, sh.banks)
			attrReports = append(attrReports, r)
		}
		rep.PerShard = append(rep.PerShard, ShardStat{
			Shard: sh.id, Lines: sh.lines, Banks: sh.banks,
			Requests: sh.requests, MemWrites: sh.memWrites, MemReads: sh.memReads,
			DevReads: shardDev.Reads, DevWrites: shardDev.Writes, Cycles: cycles,
		})
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	res.Elapsed = units.Duration(res.Cycles) * units.NewClock(config.CPUHz).Period()
	res.MeanWriteLat = writeLat.Mean()
	res.MeanReadLat = readLat.Mean()
	res.P50WriteLat = writeLat.P50()
	res.P95WriteLat = writeLat.P95()
	res.P99WriteLat = writeLat.P99()
	res.P50ReadLat = readLat.P50()
	res.P95ReadLat = readLat.P95()
	res.P99ReadLat = readLat.P99()
	res.WriteLatSum = writeLat.Sum()
	res.ReadLatSum = readLat.Sum()
	res.EnergyPJ = dev.EnergyPJ
	res.Device = dev

	if tl.Enabled() {
		tl.Finish(maxLastDone(shards), uint64(len(prep.Requests)), tlSrc)
		res.Timeline = tl.Report()
	}
	res.Attribution = attr.MergeReports(attrReports...)

	rep.CrossShardDupHits = crossDup
	if dir != nil {
		rep.Directory = dir.Snapshot()
	}
	res.Sharding = rep
	return res
}

// hashLine fingerprints a write payload the way the controller does (CRC-32
// before masking), so the cross-shard duplicate census uses the controller's
// own equivalence classes.
func hashLine(data []byte) uint32 { return hashes.CRC32(data) }

// maxLastDone returns the latest completion time across shards — the merged
// run's notion of "now" at a barrier.
func maxLastDone(shards []*shardState) units.Time {
	var t units.Time
	for _, sh := range shards {
		if sh.lastDone > t {
			t = sh.lastDone
		}
	}
	return t
}

// mergeDeviceStats folds one shard's device delta into the merged stats:
// counters add, mean waits merge weighted by operation counts, and the P99
// waits take the maximum — a conservative bound, since a true merged P99
// cannot exceed the worst shard's.
func mergeDeviceStats(dst *nvm.Stats, s nvm.Stats) {
	if s.Reads+dst.Reads > 0 {
		dst.MeanReadWait = units.Duration(
			(float64(dst.MeanReadWait)*float64(dst.Reads) + float64(s.MeanReadWait)*float64(s.Reads)) /
				float64(dst.Reads+s.Reads))
	}
	if s.Writes+dst.Writes > 0 {
		dst.MeanWriteWait = units.Duration(
			(float64(dst.MeanWriteWait)*float64(dst.Writes) + float64(s.MeanWriteWait)*float64(s.Writes)) /
				float64(dst.Writes+s.Writes))
	}
	if s.P99ReadWait > dst.P99ReadWait {
		dst.P99ReadWait = s.P99ReadWait
	}
	if s.P99WriteWait > dst.P99WriteWait {
		dst.P99WriteWait = s.P99WriteWait
	}
	dst.Reads += s.Reads
	dst.RowHits += s.RowHits
	dst.Writes += s.Writes
	dst.BitsFlipped += s.BitsFlipped
	dst.BitsWritten += s.BitsWritten
	dst.EnergyPJ += s.EnergyPJ
}

// padBankWrites extends every cause's per-bank breakdown to the shard's
// bank count, so concatenating the per-shard rows in MergeReports yields
// aligned whole-device heatmap rows (shard devices own disjoint banks).
func padBankWrites(r *attr.Report, banks int) {
	if r == nil {
		return
	}
	for i := range r.Causes {
		for len(r.Causes[i].BankWrites) < banks {
			r.Causes[i].BankWrites = append(r.Causes[i].BankWrites, 0)
		}
	}
}

// mergeEpoch folds every shard's sampled epoch state into e: counters and
// occupancy gauges add, WearMax takes the maximum, the wear summary gauges
// (mean, Gini, CoV) merge as line-count-weighted means — exact for the
// mean; for Gini and CoV an approximation that ignores cross-shard
// imbalance, which address striping keeps small — and the per-bank wear
// rows concatenate in shard order.
func mergeEpoch(e *timeline.Epoch, now units.Time, shards []*shardState, totalLines uint64) {
	if totalLines == 0 {
		totalLines = 1
	}
	for _, sh := range shards {
		var se timeline.Epoch
		if sh.sampler != nil {
			sh.sampler.SampleEpoch(&se, now)
		}
		e.DevReads += se.DevReads
		e.DevWrites += se.DevWrites
		e.EnergyPJ += se.EnergyPJ
		e.BanksBusy += se.BanksBusy
		e.NumBanks += se.NumBanks
		e.QueueDepth += se.QueueDepth
		if se.WearMax > e.WearMax {
			e.WearMax = se.WearMax
		}
		w := float64(sh.lines) / float64(totalLines)
		e.WearMean += se.WearMean * w
		e.WearGini += se.WearGini * w
		e.WearCoV += se.WearCoV * w
		e.BankWear = append(e.BankWear, se.BankWear...)
		e.Writes += se.Writes
		e.DupEliminated += se.DupEliminated
		e.ZeroWrites += sh.zeroWrites
		e.MetaHits += se.MetaHits
		e.MetaMisses += se.MetaMisses
		e.DedupLive += se.DedupLive
		e.DedupMapped += se.DedupMapped
		e.FaultECP += se.FaultECP
		e.FaultRemaps += se.FaultRemaps
		e.FaultStuck += se.FaultStuck
		e.FaultFlips += se.FaultFlips
		e.FaultSpareUsed += se.FaultSpareUsed
		e.FaultBanksRetired += se.FaultBanksRetired
	}
}

// RunShardedScheme mirrors RunScheme for sharded execution; it exists so
// callers that pattern-match on the sequential helper have an equivalent
// entry point. The memory return is nil at Shards > 1 — a sharded run has
// no single memory.
func RunShardedScheme(s Scheme, prof workload.Profile, cfg config.Config, opts ShardedOptions) (Result, Memory) {
	if opts.Shards <= 1 {
		return RunScheme(s, prof, cfg, opts.Options)
	}
	res := RunSharded(s, prof, cfg, opts)
	return res, nil
}

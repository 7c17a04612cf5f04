package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/cpu"
	"dewrite/internal/nvm"
	"dewrite/internal/shard"
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
// drives its own subsequence of the prepared stream, in order, through its
// own driver: the request step of a sequential run, over the shard's
// controller and CPU model. A shard touches only its own state plus the
// cross-shard fingerprint directory, whose reads answer from the generation
// frozen at the previous barrier and whose writes land in commutative
// pending buffers. At the barrier the directory folds the epoch's deltas,
// the timeline collector ticks once with the merged view, and the next
// epoch begins. Shards therefore never observe each other's in-epoch
// progress, which is what makes the result a pure function of (stream,
// config, shard count): scheduling worker goroutines differently cannot
// change a single counter. Result.fill then merges the shards' drivers the
// way it reads a sequential run's one.
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

// shardState is one shard's private slice of the run: the request driver
// over its controller, plus what only a shard has. Only its owning worker
// touches it between barriers.
type shardState struct {
	driver
	id       int
	lines    uint64
	banks    int
	crossDup uint64
	// ctrl is the shard's DeWrite controller, nil under other schemes; it
	// fingerprints writes for the cross-shard duplicate census.
	ctrl *core.Controller
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
		prep.check(opts.Options)
	}
	epochLen := opts.EpochRequests
	if epochLen <= 0 {
		epochLen = DefaultEpochRequests
	}

	router := shard.NewRouter(n)
	shardCfg := shard.BankSlice(cfg, n)

	var dir *shard.Directory
	shards := make([]*shardState, n)
	for i := 0; i < n; i++ {
		sh := &shardState{id: i, lines: router.LinesFor(i, prof.WorkingSetLines), banks: shardCfg.NVM.Banks()}
		faults := opts.Faults
		if faults.Enabled() {
			faults.Seed += uint64(i)
		}
		sh.mem = NewMemoryWith(s, sh.lines, shardCfg, faults, false)
		sh.machine = cpu.NewMachine(prof.Threads)
		sh.countZeros = opts.Timeline.Enabled()
		if ctrl, ok := sh.mem.(*core.Controller); ok {
			if dir == nil {
				dir = shard.NewDirectory(n)
			}
			ctrl.Tables().SetPublish(dir.Publisher(i))
			sh.ctrl = ctrl
		}
		if opts.Attr.Enabled() {
			sh.rec = attr.NewRecorder(int(opts.Attr.SamplePeriod()), opts.Seed+uint64(i))
			AttachAttr(sh.mem, sh.rec)
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
			measuring := i >= warmup
			if sh.ctrl != nil && measuring && req.Op == trace.Write &&
				dir.HeldElsewhere(sh.ctrl.Fingerprint(req.Data), sh.id) {
				sh.crossDup++
			}
			sh.step(req, router.Local(req.Addr), measuring)
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
		if tl.Enabled() {
			tl.Tick(maxLastDone(shards), uint64(end), tlSrc)
		}
	}

	res := Result{App: prof.Name, Scheme: s.String()}
	res.Gen = genDelta(prep.GenWarm, prep.GenFinal)
	drivers := make([]*driver, n)
	for i, sh := range shards {
		drivers[i] = &sh.driver
	}
	res.fill(drivers...)

	rep := &ShardingReport{Shards: n, EpochRequests: epochLen, Epochs: epochs}
	attrReports := make([]*attr.Report, 0, n)
	for _, sh := range shards {
		rep.CrossShardDupHits += sh.crossDup
		_, cycles, dev := sh.window()
		rep.PerShard = append(rep.PerShard, ShardStat{
			Shard: sh.id, Lines: sh.lines, Banks: sh.banks,
			Requests: sh.requests, MemWrites: sh.memWrites, MemReads: sh.memReads,
			DevReads: dev.Reads, DevWrites: dev.Writes, Cycles: cycles,
		})
		if sh.rec.Enabled() {
			r := sh.rec.Report()
			padBankWrites(r, sh.banks)
			attrReports = append(attrReports, r)
		}
	}

	if tl.Enabled() {
		tl.Finish(maxLastDone(shards), uint64(len(prep.Requests)), tlSrc)
		res.Timeline = tl.Report()
	}
	res.Attribution = attr.MergeReports(attrReports...)
	if dir != nil {
		rep.Directory = dir.Snapshot()
	}
	res.Sharding = rep
	return res
}

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
		if ss, ok := sh.mem.(timeline.Sampler); ok {
			ss.SampleEpoch(&se, now)
		}
		e.DevReads += se.DevReads
		e.DevWrites += se.DevWrites
		e.EnergyPJ += se.EnergyPJ
		e.BanksBusy += se.BanksBusy
		e.NumBanks += se.NumBanks
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

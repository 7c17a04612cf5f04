package experiments

import (
	"fmt"
	"slices"

	"dewrite/internal/baseline"
	"dewrite/internal/cache"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/nvm"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/wearlevel"
	"dewrite/internal/workload"
)

// ablationApps is the subset used for design-choice sweeps: one low-, one
// mid- and one high-duplication application.
func (s *Suite) ablationApps() []workload.Profile {
	var out []workload.Profile
	for _, p := range s.Opts.Profiles() {
		switch p.Name {
		case "vips", "mcf", "lbm":
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = s.Opts.Profiles()
	}
	return out
}

// replayThrough drives one prepared stream through a memory back to back,
// each request issued when the previous one completes; its reads are
// timing-only. It returns the last completion time.
func replayThrough(mem sim.Memory, prep *sim.Prepared) units.Time {
	var now units.Time
	for i := range prep.Requests {
		req := &prep.Requests[i]
		if req.Op == trace.Write {
			now = mem.Write(now, req.Addr, req.Data)
		} else {
			now = mem.ReadInto(now, req.Addr, nil)
		}
	}
	return now
}

// AblationPNA compares DeWrite with and without the prediction-based NVM
// access rule: PNA trades a small number of missed duplicates (Section IV-B
// reports ≈1.5 %) for skipping the in-NVM hash probe on predicted
// non-duplicates.
func AblationPNA(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: prediction-based NVM access (PNA)",
		"app", "PNA", "eliminated %", "missed by PNA %", "metadata NVM reads", "mean write")
	for _, prof := range s.ablationApps() {
		for _, pna := range []bool{true, false} {
			opts := s.coreOptions(prof)
			opts.Config.Dedup.PNAEnabled = pna
			r := s.replayWith(prof, opts, false).report
			t.AddRow(prof.Name, onOff(pna),
				stats.Ratio(r.DupEliminated, r.Writes)*100,
				stats.Ratio(r.MissedByPNA, r.Writes)*100,
				r.MetaNVMReads,
				r.MeanWriteLat.String())
		}
	}
	return []*stats.Table{t}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// AblationHistory sweeps the duplication-predictor history window length
// (the paper fixes 3 bits after finding longer windows add little).
func AblationHistory(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: history window length",
		"app", "bits", "prediction accuracy %", "eliminated %", "AES wasted")
	for _, prof := range s.ablationApps() {
		for _, bits := range []int{1, 2, 3, 5, 8} {
			opts := s.coreOptions(prof)
			opts.Config.Dedup.HistoryBits = bits
			r := s.replayWith(prof, opts, false).report
			t.AddRow(prof.Name, bits, r.PredAccuracy*100,
				stats.Ratio(r.DupEliminated, r.Writes)*100, r.AESWasted)
		}
	}
	return []*stats.Table{t}
}

// AblationRefWidth sweeps the saturating reference-count width: narrower
// counters save metadata bits but lose duplicates to saturation until the
// fallback-copy mechanism absorbs the pressure.
func AblationRefWidth(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: reference-count width",
		"app", "max refs", "eliminated %", "missed by saturation %")
	for _, prof := range s.ablationApps() {
		for _, width := range []uint{3, 15, 255, 65535} {
			opts := s.coreOptions(prof)
			opts.Config.Dedup.MaxReference = width
			r := s.replayWith(prof, opts, false).report
			t.AddRow(prof.Name, width,
				stats.Ratio(r.DupEliminated, r.Writes)*100,
				stats.Ratio(r.MissedBySat, r.Writes)*100)
		}
	}
	return []*stats.Table{t}
}

// AblationModes contrasts the three write-path organizations head to head on
// every ablation app: latency and energy per scheme (the Figure 15 + 20
// story in one table).
func AblationModes(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: write-path organization",
		"app", "scheme", "mean write", "mean read", "energy nJ", "AES wasted")
	for _, prof := range s.ablationApps() {
		for _, scheme := range []sim.Scheme{sim.SchemeDirect, sim.SchemeParallel, sim.SchemeDeWrite} {
			res := s.Run(scheme, prof)
			wasted := uint64(0)
			if scheme == sim.SchemeDeWrite {
				wasted = s.CoreReport(prof).AESWasted
			}
			t.AddRow(prof.Name, res.Scheme, res.MeanWriteLat.String(),
				res.MeanReadLat.String(), res.EnergyPJ/1000, wasted)
		}
	}
	return []*stats.Table{t}
}

// AblationHashWidth sweeps the fingerprint width: narrower fingerprints
// shrink the hash table but raise the collision rate, each collision costing
// a wasted verify read.
func AblationHashWidth(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: fingerprint width",
		"app", "bits", "eliminated %", "collisions", "collision %", "compares/dup")
	for _, prof := range s.ablationApps() {
		for _, bits := range []int{8, 12, 16, 24, 32} {
			opts := s.coreOptions(prof)
			opts.Config.Dedup.HashSizeBits = bits
			r := s.replayWith(prof, opts, false).report
			matches := r.Dedup.Duplicates + r.Dedup.Collisions
			t.AddRow(prof.Name, bits,
				stats.Ratio(r.DupEliminated, r.Writes)*100,
				r.Dedup.Collisions,
				stats.Ratio(r.Dedup.Collisions, max64(matches, 1))*100,
				float64(r.CompareOps)/float64(max64(r.DupEliminated, 1)))
		}
	}
	return []*stats.Table{t}
}

// AblationWearLevel contrasts the two endurance levers: DeWrite removes
// writes outright, Start-Gap (layered between the CPU and the traditional
// secure NVM) spreads the survivors across physical slots. The table reports
// the wear concentration each configuration leaves behind.
func AblationWearLevel(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: endurance levers (dedup vs wear leveling)",
		"app", "scheme", "device writes", "max wear/slot", "mean wear/slot", "max/mean", "overhead %")
	for _, prof := range s.ablationApps() {
		// A full Start-Gap rotation takes (lines+1)·psi writes; production
		// systems run psi=100 over multi-GB regions and flatten over
		// billions of writes at 1 % overhead. This run covers ~10^4 writes,
		// so the region and psi are scaled down (inflating the overhead
		// column) to complete enough rotations for the mechanism to show.
		if prof.WorkingSetLines > 256 {
			prof.WorkingSetLines = 256
		}
		configs := []struct {
			name string
			psi  int // 0 = no leveling
			dw   bool
		}{
			{"SecureNVM", 0, false},
			{"SecureNVM+StartGap", 2, false},
			{"DeWrite", 0, true},
		}
		for _, c := range configs {
			var mem sim.Memory
			var dev interface {
				WearStats() nvm.Wear
			}
			var sg *wearlevel.StartGap
			if c.dw {
				ctrl := core.New(core.Options{DataLines: prof.WorkingSetLines, Config: s.Config()})
				mem = ctrl
				dev = ctrl.Device()
			} else {
				// The Start-Gap region needs one spare slot, so the baseline
				// is provisioned with an extra line.
				base := baseline.NewSecureNVM(prof.WorkingSetLines+1, s.Config())
				dev = base.Device()
				if c.psi > 0 {
					sg = wearlevel.New(base, 0, prof.WorkingSetLines, c.psi)
					mem = sg
				} else {
					mem = base
				}
			}
			replayThrough(mem, s.Prepared(prof))
			w := dev.WearStats()
			overhead := 0.0
			if sg != nil {
				overhead = sg.Stats().Overhead * 100
			}
			t.AddRow(prof.Name, c.name, w.TotalWrites, w.MaxPerLine, w.MeanPerLine,
				float64(w.MaxPerLine)/maxF(w.MeanPerLine, 1e-9), overhead)
		}
	}
	return []*stats.Table{t}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// AblationPersist compares the metadata persistence schemes of Section V:
// the battery-backed write-back cache against SecPM-style write-through,
// which needs no battery but multiplies metadata write traffic.
func AblationPersist(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: metadata persistence",
		"app", "scheme", "metadata NVM writes", "per CPU write", "mean write", "dirty lines at shutdown")
	for _, prof := range s.ablationApps() {
		for _, mode := range []core.PersistMode{core.PersistBatteryBacked, core.PersistWriteThrough} {
			opts := s.coreOptions(prof)
			opts.Persist = mode
			rp := s.replayWith(prof, opts, true)
			r := rp.report
			t.AddRow(prof.Name, mode.String(), r.MetaNVMWrites,
				float64(r.MetaNVMWrites)/float64(max64(r.Writes, 1)),
				r.MeanWriteLat.String(), rp.flushed)
		}
	}
	return []*stats.Table{t}
}

// AblationHierarchy interposes the four-level CPU cache hierarchy of
// Table II between the request stream and the memory scheme: only misses
// and dirty write-backs reach NVM. It shows how on-chip caching filters the
// traffic and how much of DeWrite's advantage survives the filtering.
func AblationHierarchy(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: CPU cache hierarchy interposed",
		"app", "hierarchy", "mem requests", "device writes", "relative IPC (DW/base)")
	// The hierarchy is scaled to the reduced working sets (the full 32 MB L4
	// would swallow them whole and no write-back would ever reach NVM).
	scaled := func() []config.CacheLevel {
		levels := s.Config().Hierarchy
		out := make([]config.CacheLevel, len(levels))
		for i, l := range levels {
			l.SizeBytes /= 64
			if min := l.Ways * config.LineSize * 4; l.SizeBytes < min {
				l.SizeBytes = min
			}
			out[i] = l
		}
		return out
	}
	for _, prof := range s.ablationApps() {
		for _, withCaches := range []bool{false, true} {
			opts := s.simOptions()
			opts.Prepared = s.Prepared(prof)
			optsBase := opts
			if withCaches {
				opts.Hierarchy = cache.NewHierarchy(scaled())
				optsBase.Hierarchy = cache.NewHierarchy(scaled())
			}
			dw := s.run(sim.SchemeDeWrite, prof, s.Config(), opts)
			base := s.run(sim.SchemeSecureNVM, prof, s.Config(), optsBase)
			t.AddRow(prof.Name, onOff(withCaches),
				dw.MemWrites+dw.MemReads, dw.Device.Writes, sim.RelativeIPC(dw, base))
		}
	}
	return []*stats.Table{t}
}

// AblationCacheScale explains the compressed Figure 15 gap: at this
// reproduction's scale the 2 MB metadata cache covers nearly the whole
// (scaled) metadata, so the direct way's serialized in-NVM hash probes —
// the cost that makes it 27 % slower in the paper's 16 GB system — rarely
// fire. Shrinking the cache restores the paper's regime: the direct way's
// normalized write latency grows while DeWrite (PNA skips the probe for
// predicted non-duplicates) holds close to the parallel way.
func AblationCacheScale(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: metadata-cache coverage vs Figure 15 gap",
		"app", "cache scale", "direct", "parallel", "DeWrite", "direct gap %")
	apps := s.ablationApps()
	divides := []int{1, 16, 64, 256}
	// Each partition shrinks by the divide down to a floor of four sets, so
	// two divides can clamp to one configuration: configs holds each
	// distinct one once, and divides[i] reads configs[which[i]].
	base := s.Config().MetaCache
	floor := base.Ways * base.BlockBytes * 4
	var configs []config.MetaCacheConfig
	which := make([]int, len(divides))
	for i, divide := range divides {
		mc := base
		mc.HashBytes = maxInt(mc.HashBytes/divide, floor)
		mc.AddrMapBytes = maxInt(mc.AddrMapBytes/divide, floor)
		mc.InvHashBytes = maxInt(mc.InvHashBytes/divide, floor)
		mc.FSMBytes = maxInt(mc.FSMBytes/divide, floor)
		which[i] = slices.Index(configs, mc)
		if which[i] < 0 {
			which[i] = len(configs)
			configs = append(configs, mc)
		}
	}
	// Every (app, config) cell runs three schemes over the app's prepared
	// stream; the suite's own config reads the memoized grid runs. Fan the
	// cells out and add rows in order.
	type cellResult struct {
		direct, parallel, dewrite sim.Result
	}
	results := make([]cellResult, len(apps)*len(configs))
	Fan(len(results), func(j int) {
		prof := apps[j/len(configs)]
		cfg := s.Config()
		cfg.MetaCache = configs[j%len(configs)]
		opts := s.simOptions()
		opts.Prepared = s.Prepared(prof)
		results[j].direct = s.run(sim.SchemeDirect, prof, cfg, opts)
		results[j].parallel = s.run(sim.SchemeParallel, prof, cfg, opts)
		results[j].dewrite = s.run(sim.SchemeDeWrite, prof, cfg, opts)
	})
	for a, prof := range apps {
		for i, divide := range divides {
			r := results[a*len(configs)+which[i]]
			if r.parallel.WriteLatSum == 0 {
				continue
			}
			nd := float64(r.direct.WriteLatSum) / float64(r.parallel.WriteLatSum)
			ndw := float64(r.dewrite.WriteLatSum) / float64(r.parallel.WriteLatSum)
			t.AddRow(prof.Name, fmt.Sprintf("1/%d", divide), nd, 1.0, ndw, (nd-1)*100)
		}
	}
	return []*stats.Table{t}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AblationBus enables channel-bus modelling: all banks share one or more
// data buses, each line transfer occupying its bus for the burst time. Bus
// contention adds a serialization point bank parallelism cannot hide; fewer
// writes also means fewer bursts, so DeWrite's advantage survives intact.
func AblationBus(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: shared channel bus",
		"app", "channels", "write speedup", "read speedup", "relative IPC")
	apps := s.ablationApps()
	channelGrid := []int{0, 2, 1}
	type cellResult struct{ dw, base sim.Result }
	results := make([]cellResult, len(apps)*len(channelGrid))
	Fan(len(results), func(j int) {
		prof := apps[j/len(channelGrid)]
		cfg := s.Config()
		cfg.NVM.Channels = channelGrid[j%len(channelGrid)]
		opts := s.simOptions()
		opts.Prepared = s.Prepared(prof)
		results[j].dw = s.run(sim.SchemeDeWrite, prof, cfg, opts)
		results[j].base = s.run(sim.SchemeSecureNVM, prof, cfg, opts)
	})
	for j, r := range results {
		channels := channelGrid[j%len(channelGrid)]
		label := "off"
		if channels > 0 {
			label = fmt.Sprintf("%d", channels)
		}
		t.AddRow(apps[j/len(channelGrid)].Name, label,
			sim.WriteSpeedup(r.dw, r.base), sim.ReadSpeedup(r.dw, r.base), sim.RelativeIPC(r.dw, r.base))
	}
	return []*stats.Table{t}
}

// AblationPhases runs a phased workload — an initialization flood of zero
// lines followed by a low-duplication steady state, cycling — and checks
// DeWrite's machinery across the phase boundaries: the predictor re-locks
// onto each phase and the write reduction lands between the phase extremes.
func AblationPhases(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: phased workload (init-flood / steady-state cycle)",
		"profile", "dup % (ground truth)", "eliminated %", "prediction accuracy %")
	phased := workload.Profile{
		Name: "phased", Suite: "SYNTH",
		StateSame: 0.92, WriteFrac: 0.55, WorkingSetLines: 1 << 14,
		Locality: 0.8, RewriteWords: 6, Threads: 1, MemGap: 25,
		Phases: []workload.Phase{
			{DupRatio: 0.9, ZeroRatio: 0.5, Writes: 2000}, // init: zero flood
			{DupRatio: 0.25, ZeroRatio: 0.02, Writes: 4000},
		},
	}
	uniform := phased
	uniform.Name = "uniform-equivalent"
	uniform.Phases = nil
	uniform.DupRatio = 0.47 // roughly the phased mixture
	uniform.ZeroRatio = 0.18

	for _, prof := range []workload.Profile{phased, uniform} {
		// Not replayWith: these profiles are not the suite's, and a memo
		// entry for them would count as a simulation of its own.
		r := s.replayOn(core.New(s.coreOptions(prof)), prof, false).report
		// Ground truth straight from the prepared stream's generator stats.
		gt := s.Prepared(prof).GenFinal
		t.AddRow(prof.Name,
			stats.Ratio(gt.Duplicates, gt.Writes)*100,
			stats.Ratio(r.DupEliminated, r.Writes)*100,
			r.PredAccuracy*100)
	}
	return []*stats.Table{t}
}

// AblationIntegrity measures the cost of the Merkle integrity tree (the
// repository's extension beyond the paper's confidentiality-only threat
// model) and the dedup synergy: eliminated writes skip the tree update, so
// DeWrite pays integrity maintenance only for its surviving writes.
func AblationIntegrity(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: Merkle integrity tree",
		"app", "integrity", "mean write", "mean read",
		"tree updates", "updates saved by dedup %")
	for _, prof := range s.ablationApps() {
		for _, on := range []bool{false, true} {
			opts := s.coreOptions(prof)
			opts.Integrity = on
			r := s.replayWith(prof, opts, false).report
			saved := ""
			if on {
				// Without dedup, every CPU write would update the tree.
				saved = fmt.Sprintf("%.1f", stats.Ratio(r.Writes-r.TreeUpdates, r.Writes)*100)
			}
			t.AddRow(prof.Name, onOff(on), r.MeanWriteLat.String(), r.MeanReadLat.String(),
				r.TreeUpdates, saved)
		}
	}
	return []*stats.Table{t}
}

// AblationSeeds reruns the headline comparison under several workload seeds
// and reports the spread, showing that the conclusions do not hinge on one
// random stream.
func AblationSeeds(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: seed sensitivity of the headline speedups",
		"app", "metric", "min", "mean", "max")
	seeds := []uint64{11, 42, 1234}
	apps := s.ablationApps()
	type cellResult struct{ ws, rs, is float64 }
	results := make([]cellResult, len(apps)*len(seeds))
	Fan(len(results), func(j int) {
		prof := apps[j/len(seeds)]
		opts := s.simOptions()
		opts.Seed = seeds[j%len(seeds)]
		if !s.isSuiteRun(s.Config(), opts) {
			opts.Prepared = sim.Prepare(prof, opts)
		}
		dw := s.run(sim.SchemeDeWrite, prof, s.Config(), opts)
		base := s.run(sim.SchemeSecureNVM, prof, s.Config(), opts)
		results[j] = cellResult{
			ws: sim.WriteSpeedup(dw, base),
			rs: sim.ReadSpeedup(dw, base),
			is: sim.RelativeIPC(dw, base),
		}
	})
	for pi, prof := range apps {
		var ws, rs, is []float64
		for si := range seeds {
			r := results[pi*len(seeds)+si]
			ws = append(ws, r.ws)
			rs = append(rs, r.rs)
			is = append(is, r.is)
		}
		t.AddRow(prof.Name, "write speedup", minOf(ws), mean(ws), maxOf(ws))
		t.AddRow(prof.Name, "read speedup", minOf(rs), mean(rs), maxOf(rs))
		t.AddRow(prof.Name, "relative IPC", minOf(is), mean(is), maxOf(is))
	}
	return []*stats.Table{t}
}

func minOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// AblationRowPolicy compares the open-page row-buffer policy (default)
// against a closed-page policy where every read pays the full array access.
// Open-page rewards DeWrite's concentrated reads of shared lines; the
// ablation shows how much of the read advantage depends on it.
func AblationRowPolicy(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: row-buffer policy",
		"app", "policy", "write speedup", "read speedup", "DW row-hit %")
	for _, prof := range s.ablationApps() {
		for _, closed := range []bool{false, true} {
			cfg := s.Config()
			cfg.NVM.ClosePage = closed
			opts := s.simOptions()
			opts.Prepared = s.Prepared(prof)
			dw := s.run(sim.SchemeDeWrite, prof, cfg, opts)
			base := s.run(sim.SchemeSecureNVM, prof, cfg, opts)
			policy := "open-page"
			if closed {
				policy = "closed-page"
			}
			t.AddRow(prof.Name, policy,
				sim.WriteSpeedup(dw, base), sim.ReadSpeedup(dw, base),
				stats.Ratio(dw.Device.RowHits, dw.Device.Reads)*100)
		}
	}
	return []*stats.Table{t}
}

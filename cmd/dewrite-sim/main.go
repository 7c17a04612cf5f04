// Command dewrite-sim runs one application workload against one secure-NVM
// scheme and prints a detailed report.
//
// Usage:
//
//	dewrite-sim -app lbm -scheme dewrite
//	dewrite-sim -app blackscholes -scheme securenvm -requests 50000
//	dewrite-sim -apps                      # list application profiles
//	dewrite-sim -app mcf -scheme dewrite -hierarchy   # CPU caches in front
//	dewrite-sim -app lbm -scheme dewrite -trace t.json   # Perfetto trace
//	dewrite-sim -app lbm -scheme dewrite -json           # report as JSON
//	dewrite-sim -app lbm,mcf -scheme dewrite,securenvm -parallel 4
//	                                       # fan the grid across workers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dewrite/internal/attr"
	"dewrite/internal/cache"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/experiments"
	"dewrite/internal/fault"
	"dewrite/internal/monitor"
	"dewrite/internal/sim"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

var schemes = map[string]sim.Scheme{
	"dewrite":   sim.SchemeDeWrite,
	"direct":    sim.SchemeDirect,
	"parallel":  sim.SchemeParallel,
	"securenvm": sim.SchemeSecureNVM,
	"shredder":  sim.SchemeShredder,
}

// resolveProfile maps an application name ("worstcase" and "custom" are
// synthetic; "custom" starts from a neutral mid-range profile meant to be
// shaped with the override flags) to its profile.
func resolveProfile(app string) (workload.Profile, error) {
	switch app {
	case "worstcase":
		return workload.WorstCase(), nil
	case "custom":
		return workload.Profile{
			Name: "custom", Suite: "SYNTH",
			DupRatio: 0.5, ZeroRatio: 0.1, StateSame: 0.92,
			WriteFrac: 0.5, WorkingSetLines: 1 << 14, Locality: 0.8,
			RewriteWords: 6, Threads: 1, MemGap: 30,
		}, nil
	}
	prof, ok := workload.ByName(app)
	if !ok {
		return workload.Profile{}, fmt.Errorf("unknown app %q", app)
	}
	return prof, nil
}

// overrides carries the optional profile-field overrides; negative or zero
// sentinel values mean "keep the profile's value".
type overrides struct {
	dup, zero, writeFrac, memGap float64
	workset                      uint64
	threads                      int
}

// applyOverrides returns prof with any explicitly set override applied.
func applyOverrides(prof workload.Profile, o overrides) workload.Profile {
	if o.dup >= 0 {
		prof.DupRatio = o.dup
	}
	if o.zero >= 0 {
		prof.ZeroRatio = o.zero
	}
	if o.writeFrac >= 0 {
		prof.WriteFrac = o.writeFrac
	}
	if o.memGap >= 0 {
		prof.MemGap = o.memGap
	}
	if o.workset > 0 {
		prof.WorkingSetLines = o.workset
	}
	if o.threads > 0 {
		prof.Threads = o.threads
	}
	return prof
}

// resolveScheme maps a scheme name to its identifier, case-insensitively.
func resolveScheme(name string) (sim.Scheme, error) {
	sch, ok := schemes[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
	return sch, nil
}

func main() {
	var (
		app       = flag.String("app", "lbm", "application profile(s), comma-separated (or 'worstcase')")
		scheme    = flag.String("scheme", "dewrite", "scheme(s), comma-separated: dewrite|direct|parallel|securenvm|shredder")
		parallel  = flag.Int("parallel", 0, "worker goroutines for multi-run grids (<1 = GOMAXPROCS)")
		requests  = flag.Int("requests", 30000, "memory requests to drive")
		warmup    = flag.Int("warmup", 6000, "warmup requests excluded from measurement")
		seed      = flag.Uint64("seed", 42, "workload seed")
		listApps  = flag.Bool("apps", false, "list application profiles and exit")
		hierarchy = flag.Bool("hierarchy", false, "interpose the 4-level CPU cache hierarchy")

		jsonOut  = flag.Bool("json", false, "emit the full report as one JSON object on stdout")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file of every request (every -attr-sample'th if given; open in Perfetto)")

		faultsFile = flag.String("faults", "", "fault-injection config as a JSON file (see internal/fault.Config)")
		endurance  = flag.Uint64("endurance", 0, "mean per-line write endurance (0 = no wear-out faults)")
		readBER    = flag.Float64("ber", 0, "transient bit-error probability per array read")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for the fault injector (independent of -seed)")
		crashAt    = flag.Uint64("crash-at", 0, "cut power after this many requests (1-based), recover, and finish the run")

		attrOn     = flag.Bool("attr", false, "attribute request latency to phases and line writes to causes")
		attrSample = flag.Int("attr-sample", attr.DefaultSamplePeriod, "causal-tracing sample period: trace every Nth request")
		attrFolded = flag.String("attr-folded", "", "write sampled phase totals as flamegraph folded stacks (single run, implies -attr)")
		attrCSV    = flag.String("attr-csv", "", "write the write-provenance ledger as CSV (single run, implies -attr)")

		epochEvery  = flag.Uint64("epoch", 0, "timeline epoch size in requests (0 = requests/64)")
		timelineCSV = flag.String("timeline-csv", "", "write the epoch time series as CSV (single run)")
		heatmapOut  = flag.String("heatmap", "", "write the per-bank wear heatmap as CSV (single run)")
		monitorAddr = flag.String("monitor", "", "serve live gauges (/metrics, /healthz, /debug/vars) and /debug/pprof/ on this address (e.g. :8080)")

		// Custom-profile overrides: set -app custom (or override a named
		// profile's fields individually).
		dupRatio  = flag.Float64("dup", -1, "override duplicate-write ratio [0,1]")
		zeroRatio = flag.Float64("zero", -1, "override zero-line ratio [0,1]")
		writeFrac = flag.Float64("writefrac", -1, "override write fraction of memory requests")
		workset   = flag.Uint64("workset", 0, "override working-set lines")
		threads   = flag.Int("threads", 0, "override hardware thread count")
		memgap    = flag.Float64("memgap", -1, "override mean instructions between memory requests")
	)
	flag.Parse()

	if *listApps {
		for _, p := range workload.Profiles() {
			fmt.Println(p.String())
		}
		fmt.Println(workload.WorstCase().String())
		return
	}

	var profs []workload.Profile
	for _, name := range strings.Split(*app, ",") {
		prof, err := resolveProfile(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: %v (use -apps)\n", err)
			os.Exit(2)
		}
		profs = append(profs, applyOverrides(prof, overrides{
			dup: *dupRatio, zero: *zeroRatio, writeFrac: *writeFrac,
			workset: *workset, threads: *threads, memGap: *memgap,
		}))
	}
	var schs []sim.Scheme
	for _, name := range strings.Split(*scheme, ",") {
		sch, err := resolveScheme(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: %v\n", err)
			os.Exit(2)
		}
		schs = append(schs, sch)
	}

	// The run grid, in canonical (app-major, scheme-minor) order. Reports are
	// printed in this order no matter how the runs are scheduled.
	type job struct {
		prof workload.Profile
		sch  sim.Scheme
	}
	var jobs []job
	for _, prof := range profs {
		for _, sch := range schs {
			jobs = append(jobs, job{prof, sch})
		}
	}
	single := len(jobs) == 1
	if !single && (*traceOut != "" || *timelineCSV != "" || *heatmapOut != "" ||
		*attrFolded != "" || *attrCSV != "") {
		fmt.Fprintf(os.Stderr, "dewrite-sim: -trace/-timeline-csv/-heatmap/-attr-folded/-attr-csv need a single (app, scheme) run\n")
		os.Exit(2)
	}
	// -trace records through the attribution recorder with span capture on,
	// sampling every request unless -attr-sample says otherwise; without
	// -attr the report stays the plain one.
	enableAttr := *attrOn || *attrFolded != "" || *attrCSV != ""
	samplePeriod := *attrSample
	if *traceOut != "" && !flagGiven("attr-sample") {
		samplePeriod = 1
	}
	if (enableAttr || *traceOut != "") && samplePeriod < 1 {
		fmt.Fprintf(os.Stderr, "dewrite-sim: -attr-sample must be >= 1\n")
		os.Exit(2)
	}

	cfg := config.Experiment()

	// Fault model: a -faults JSON file sets the base config; the individual
	// flags override its fields.
	var fcfg fault.Config
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: faults: %v\n", err)
			os.Exit(2)
		}
		if err := json.Unmarshal(data, &fcfg); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: faults: %s: %v\n", *faultsFile, err)
			os.Exit(2)
		}
	}
	if fcfg.Seed == 0 || *faultSeed != 1 {
		fcfg.Seed = *faultSeed
	}
	if *endurance != 0 {
		fcfg.Endurance = *endurance
	}
	if *readBER != 0 {
		fcfg.ReadBER = *readBER
	}
	if *crashAt > uint64(*requests) {
		fmt.Fprintf(os.Stderr, "dewrite-sim: -crash-at %d is beyond -requests %d\n", *crashAt, *requests)
		os.Exit(2)
	}

	var reg *monitor.Registry
	if *monitorAddr != "" {
		reg = monitor.NewRegistry()
		msrv, err := monitor.Serve(*monitorAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: monitor: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		prev := experiments.SetProgress(reg.Progress())
		defer experiments.SetProgress(prev)
		fmt.Fprintf(os.Stderr, "dewrite-sim: monitor at http://%s/metrics\n", msrv.Addr())
	}

	every := *epochEvery
	if every == 0 {
		every = uint64(*requests) / 64
		if every == 0 {
			every = 1
		}
	}

	// Every job is hermetic (own memory, own seeded stream, own timeline
	// collector), so the grid fans out across workers while results land in
	// canonical-order slots.
	mems := make([]sim.Memory, len(jobs))
	results := make([]sim.Result, len(jobs))
	recs := make([]*attr.Recorder, len(jobs))
	experiments.ForEach(*parallel, len(jobs), func(i int) {
		j := jobs[i]
		tl := timeline.NewByRequests(every)
		prefix := j.prof.Name + "/" + j.sch.String()
		if reg != nil {
			tl.OnEpoch = func(e *timeline.Epoch) { reg.PublishEpoch(prefix, e) }
		}
		opts := sim.Options{
			Requests: *requests, Warmup: *warmup, Seed: *seed,
			Timeline: tl, Faults: fcfg, CrashAt: *crashAt,
		}
		if enableAttr || *traceOut != "" {
			// One recorder per job: the sampling counter is recorder-local,
			// so which requests get traced is independent of -parallel.
			recs[i] = attr.NewRecorder(samplePeriod, *seed)
			if *traceOut != "" {
				recs[i].CaptureSpans(0)
			}
			opts.Attr = recs[i]
		}
		if *hierarchy {
			opts.Hierarchy = cache.NewHierarchy(cfg.Hierarchy)
		}
		mem := sim.NewMemoryWith(j.sch, j.prof.WorkingSetLines, cfg, fcfg, *crashAt != 0)
		results[i] = sim.Run(j.prof.Name, j.sch.String(), mem, j.prof, opts)
		if !enableAttr {
			results[i].Attribution = nil
		}
		mems[i] = results[i].FinalMemory()
		if reg != nil {
			reg.PublishAttribution(prefix, results[i].Attribution)
		}
	})

	if *traceOut != "" {
		if err := writeFileWith(*traceOut, recs[0].WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dewrite-sim: wrote %d trace events to %s (%d dropped)\n",
			recs[0].Captured(), *traceOut, recs[0].Dropped())
	}
	if *timelineCSV != "" {
		if err := writeFileWith(*timelineCSV, results[0].Timeline.WriteCSV); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: timeline: %v\n", err)
			os.Exit(1)
		}
	}
	if *heatmapOut != "" {
		if err := writeFileWith(*heatmapOut, results[0].Timeline.WriteWearHeatmapCSV); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: heatmap: %v\n", err)
			os.Exit(1)
		}
	}
	if *attrFolded != "" {
		if err := writeFileWith(*attrFolded, recs[0].WriteFolded); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: attr-folded: %v\n", err)
			os.Exit(1)
		}
	}
	if *attrCSV != "" {
		if err := writeFileWith(*attrCSV, recs[0].WriteProvenanceCSV); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-sim: attr-csv: %v\n", err)
			os.Exit(1)
		}
	}

	for i := range jobs {
		if *jsonOut {
			// One report object per run, streamed in canonical order.
			if err := sim.NewRunReport(results[i], mems[i]).WriteJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "dewrite-sim: json: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		printText(results[i], jobs[i].prof, mems[i])
	}
}

// printText writes the human-readable report of one run to stdout.
func printText(res sim.Result, prof workload.Profile, mem sim.Memory) {
	fmt.Printf("app           %s (%s)\n", res.App, prof.Suite)
	fmt.Printf("scheme        %s\n", res.Scheme)
	fmt.Printf("requests      %d measured (writes %d, reads %d)\n", res.Requests, res.MemWrites, res.MemReads)
	fmt.Printf("ground truth  %.1f%% duplicate writes, %.1f%% zero lines\n",
		pct(res.Gen.Duplicates, res.Gen.Writes), pct(res.Gen.ZeroWrites, res.Gen.Writes))
	fmt.Printf("write latency mean %v, p50 %v, p95 %v, p99 %v (sum %v)\n",
		res.MeanWriteLat, res.P50WriteLat, res.P95WriteLat, res.P99WriteLat, res.WriteLatSum)
	fmt.Printf("read latency  mean %v, p50 %v, p95 %v, p99 %v (sum %v)\n",
		res.MeanReadLat, res.P50ReadLat, res.P95ReadLat, res.P99ReadLat, res.ReadLatSum)
	fmt.Printf("IPC           %.3f (%d instructions, %d cycles)\n", res.IPC, res.Instructions, res.Cycles)
	fmt.Printf("device        %d reads (%d row hits), %d writes\n",
		res.Device.Reads, res.Device.RowHits, res.Device.Writes)
	fmt.Printf("energy        %.1f uJ\n", res.EnergyPJ/1e6)
	fmt.Printf("bit flips     %.1f%% of written cells\n", pct(res.Device.BitsFlipped, res.Device.BitsWritten))
	if tl := res.Timeline; tl != nil && len(tl.Epochs) > 0 {
		last := tl.Epochs[len(tl.Epochs)-1]
		fmt.Printf("timeline      %d epochs (every %d %s): final max wear %d, Gini %.3f\n",
			len(tl.Epochs), tl.Every, tl.EpochBy, last.WearMax, last.WearGini)
	}
	if dev := sim.DeviceOf(mem); dev != nil && dev.FaultsEnabled() {
		fs := dev.FaultStats()
		fmt.Printf("faults        %d worn writes: %d ECP-corrected, %d remapped (%d/%d spares), %d stuck; %d transient flips, %d banks retired\n",
			fs.WornWrites, fs.ECPCorrections, fs.Remaps, fs.SpareUsed, fs.SpareLines,
			fs.StuckLines, fs.TransientBitFlips, fs.BanksRetired)
	}
	if rep := res.Crash; rep != nil {
		fmt.Printf("crash         at request %d: %d dirty meta lines lost; mappings %d lost, %d stale, %d dangling; %d divergent locations, %d refcounts repaired\n",
			rep.CrashedAt, rep.DirtyMetaLines, rep.LostMappings, rep.StaleMappings,
			rep.DanglingMappings, rep.DivergentLocations, rep.RefcountMismatches)
		fmt.Printf("recovery      %d mappings over %d live locations recovered, %d lines poisoned\n",
			rep.RecoveredMappings, rep.LiveLocations, rep.PoisonedLines)
	}

	if a := res.Attribution; a != nil {
		fmt.Printf("\nattribution (sample period %d):\n", a.SamplePeriod)
		fmt.Printf("  provenance           %d line writes, %.1f uJ\n", a.TotalLineWrites, a.EnergyPJ/1e6)
		for _, c := range a.Causes {
			if c.Writes == 0 {
				continue
			}
			fmt.Printf("    %-12s %10d writes (%.1f%%)\n", c.Cause, c.Writes, pct(c.Writes, a.TotalLineWrites))
		}
		fmt.Printf("  sampled              %d writes (%v), %d reads (%v)\n",
			a.SampledWrites, units.Duration(a.SampledWritePs),
			a.SampledReads, units.Duration(a.SampledReadPs))
		for _, p := range a.Phases {
			den := a.SampledWritePs
			if p.Kind == "read" {
				den = a.SampledReadPs
			}
			fmt.Printf("    %-5s %-13s %8d spans, %5.1f%% of %s time\n",
				p.Kind, p.Phase, p.Count, pct(p.TotalPs, den), p.Kind)
		}
	}

	if ctrl, ok := mem.(*core.Controller); ok {
		r := ctrl.Report()
		fmt.Printf("\ncontroller (%s, whole run including warmup):\n", r.Mode)
		fmt.Printf("  writes eliminated    %d / %d (%.1f%%)\n", r.DupEliminated, r.Writes,
			pct(r.DupEliminated, r.Writes))
		fmt.Printf("  missed by PNA        %d, by saturation %d\n", r.MissedByPNA, r.MissedBySat)
		fmt.Printf("  prediction accuracy  %.1f%%\n", r.PredAccuracy*100)
		fmt.Printf("  AES line ops         %d (%d wasted), metadata ops %d\n",
			r.AESLineOps, r.AESWasted, r.AESMetaOps)
		fmt.Printf("  metadata NVM traffic %d reads, %d writes\n", r.MetaNVMReads, r.MetaNVMWrites)
		fmt.Printf("  dedup state          %d live lines, %d mapped away, %d collisions\n",
			r.Dedup.LiveLines, r.Dedup.MappedAway, r.Dedup.Collisions)
		for _, mc := range ctrl.MetaCaches() {
			fmt.Printf("  %-8s cache       %.2f%% hit rate\n", mc.Name(), mc.HitRate()*100)
		}
	}
}

// flagGiven reports whether the named flag was set on the command line.
func flagGiven(name string) bool {
	given := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			given = true
		}
	})
	return given
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// writeFileWith creates path and streams write's output into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

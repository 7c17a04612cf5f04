package main

import (
	"runtime"
	"time"

	"dewrite/internal/experiments"
	"dewrite/internal/sim"
)

// suiteWorkers is dewrite-bench -quick -parallel 2: the researchers' job of
// regenerating every table and figure, at this host's two CPUs.
const suiteWorkers = 2

// suiteShares are the experiments reported one by one as shares of the
// suite's wall time; fig21 alone is most of it (ROADMAP item 2b).
var suiteShares = []string{"fig21", "fig13", "abl-cachescale", "faultcampaign"}

// suite-quick: NewSuite(QuickOptions()), Prefill(2), RunAll(All(), 2). Set-up
// is building the suite and materialising its request streams; the measured
// part is the prefill plus every experiment.
func runSuiteQuick(c *runConfig) (*outcome, error) {
	opts := experiments.QuickOptions()
	opts.Seed = c.seed
	if c.toy {
		opts.Requests, opts.Warmup = 1_500, 500
	}
	profs := opts.Profiles()
	exps := experiments.All()
	o := newOutcome()

	// setup builds the suite and materialises its request streams on one
	// goroutine (the two workers' split of five streams would make the
	// time depend on scheduling), n times, each over the same live heap: no
	// other suite is held meanwhile. It returns the last suite and the raw
	// times.
	setup := func(n int) (*experiments.Suite, []float64) {
		var s *experiments.Suite
		raw := make([]float64, n)
		for i := range raw {
			s = nil
			runtime.GC()
			t0 := time.Now()
			s = experiments.NewSuite(opts)
			for _, prof := range profs {
				s.Prepared(prof)
			}
			raw[i] = time.Since(t0).Seconds()
		}
		return s, raw
	}
	sampleSetups := func(raw []float64, slow float64) {
		for _, r := range raw {
			o.sampleCalibrated("setup_s", r, slow, false)
		}
	}
	setups := setupPerRep
	if c.trace {
		setups = 1
	} else {
		setup(2) // warm-up: a process's first suites also pay for growing its heap
	}
	var suite *experiments.Suite
	err := repeat(c, func(rep int) error {
		resetPeakRSS()
		sampler := startSampler()
		suite = nil
		var raw []float64
		suite, raw = setup(setups)
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		t0 := time.Now()
		suite.Prefill(suiteWorkers)
		t1 := time.Now()
		outs := experiments.RunAll(suite, exps, suiteWorkers)
		t2 := time.Now()
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		c.spans.add("suite.prefill", 0, t0, t1)
		c.spans.add("suite.runall", 0, t1, t2)

		ops := float64(suite.Simulations() * opts.Requests)
		wall := t2.Sub(t0)
		slow := sampler.slowdown()
		o.record("slowdown", slow)
		o.sampleCalibrated("ops_per_s", ops/wall.Seconds(), slow, true)
		sampleSetups(raw, slow)
		o.sample("peak_rss_mb", peakRSSMB())
		c.logger("  suite-quick rep: prefill %v, experiments %v", t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond))
		for _, oc := range outs {
			o.attempted++
			if !c.check.check("suite-quick/"+oc.Experiment.ID, tableDigest(oc.Tables)) {
				o.failed++
			}
		}
		if !c.trace {
			return nil
		}
		v := o.values
		share := func(d time.Duration) float64 { return ratio(float64(d), float64(wall)) }
		v["experiments.prefill_share"] = share(t1.Sub(t0))
		var rest, longest time.Duration
		for _, oc := range outs {
			rest += oc.Wall
			longest = max(longest, oc.Wall)
			for _, id := range suiteShares {
				if oc.Experiment.ID == id {
					v["experiments."+id+"_share"] = share(oc.Wall)
					rest -= oc.Wall
				}
			}
		}
		v["experiments.rest_share"] = share(rest)
		v["experiments.critical_path_frac"] = ratio(float64(longest), float64(t2.Sub(t1)))
		v["experiments.allocs_per_req"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), ops)
		v["process.cpu_us_per_op"] = ratio(float64(cpu)/1e3, ops)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !c.trace {
		// A last set of set-up samples, after the reps.
		suite = nil
		sampler := startSampler()
		_, raw := setup(setups)
		sampleSetups(raw, sampler.slowdown())
		return o, nil
	}

	// The layers below the engine, over the suite's own request streams:
	// each application's DeWrite run, replayed as Suite.Run replays it.
	cpuPerOp := o.values["process.cpu_us_per_op"]
	var streams []stream
	var next float64
	for _, prof := range profs {
		sopts := sim.Options{Requests: opts.Requests, Warmup: opts.Warmup, Prepared: suite.Prepared(prof)}
		streams = append(streams, stream{name: prof.Name, prof: prof, cfg: suite.Config(), dataLines: prof.WorkingSetLines, opts: sopts})
		next += generatorNs(c.spans, prof, c.seed, opts.Requests) / float64(len(profs))
	}
	if err := layerRun(c, o, "suite-quick/replay", streams); err != nil {
		return nil, err
	}
	o.values["workload.next_ns"] = next
	o.values["process.cpu_us_per_op"] = cpuPerOp
	return o, nil
}

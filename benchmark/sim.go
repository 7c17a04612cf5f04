package main

import (
	"fmt"
	"runtime"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/workload"
)

// One sim rep is the dewrite-sim path: a generator-driven DeWrite run of
// 1 M requests, the first 100 k of them warm-up, over config.Default().
const (
	simRequests = 1_000_000
	simWarmup   = 100_000
	// setupPerRep is how many set-up samples a sim or suite run takes before
	// each rep; setup_s is the median of all of them.
	setupPerRep = 16
	// generatorCalls bounds the requests timed for workload.next_ns.
	generatorCalls = 1 << 18
)

// sim-dedup: lbm writes 90 % duplicate lines, so most writes take the
// duplicate path (CRC, candidate lookup, verify read and decrypt, remap) and
// encryption and device writes are rare.
func runSimDedup(c *runConfig) (*outcome, error) { return runSim(c, "sim-dedup", "lbm") }

// sim-unique: vips writes 17 % duplicates, so most writes take the unique
// path (encrypt, placement, device write, four metadata updates): the
// layers sim-dedup skips.
func runSimUnique(c *runConfig) (*outcome, error) { return runSim(c, "sim-unique", "vips") }

func runSim(c *runConfig, name, app string) (*outcome, error) {
	prof, ok := workload.ByName(app)
	if !ok {
		return nil, fmt.Errorf("no %s profile", app)
	}
	cfg := config.Default()
	opts := sim.Options{Requests: simRequests, Warmup: simWarmup, Seed: c.seed}
	if c.toy {
		opts.Requests, opts.Warmup = 20_000, 2_000
	}
	o := newOutcome()

	if c.trace {
		if err := layerRun(c, o, name, []stream{{prof: prof, cfg: cfg, dataLines: prof.WorkingSetLines, opts: opts}}); err != nil {
			return nil, err
		}
		o.values["workload.next_ns"] = generatorNs(c.spans, prof, c.seed, min(generatorCalls, opts.Requests))
		return o, nil
	}

	err := repeat(c, func(int) error {
		// Set-up samples are spread over the run, a few before every rep.
		resetPeakRSS()
		sampler := startSampler()
		setups := make([]float64, setupPerRep)
		for i := range setups {
			runtime.GC()
			t0 := time.Now()
			_ = sim.NewMemory(sim.SchemeDeWrite, prof.WorkingSetLines, cfg)
			setups[i] = time.Since(t0).Seconds()
		}
		mem := sim.NewMemory(sim.SchemeDeWrite, prof.WorkingSetLines, cfg)
		runtime.GC()
		t0 := time.Now()
		res := sim.Run(prof.Name, sim.SchemeDeWrite.String(), mem, prof, opts)
		wall := time.Since(t0)
		slow := sampler.slowdown()
		o.record("slowdown", slow)
		o.sampleCalibrated("ops_per_s", float64(opts.Requests)/wall.Seconds(), slow, true)
		for _, s := range setups {
			o.sampleCalibrated("setup_s", s, slow, false)
		}
		o.sample("peak_rss_mb", peakRSSMB())
		o.attempted += int64(opts.Requests)
		d, err := reportDigest(res, mem)
		if err != nil {
			return err
		}
		if !c.check.check(name, d) {
			o.failed += int64(opts.Requests)
		}
		c.logger("  %s rep: %d requests in %v", name, opts.Requests, wall.Round(time.Millisecond))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

// repeat runs rep at least once and then again while another rep is
// expected to end within the run's measuring time. A traced run makes one
// rep.
func repeat(c *runConfig, rep func(i int) error) error {
	if c.trace {
		return rep(0)
	}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		last := time.Since(t0)
		if time.Since(start)+last > c.seconds {
			return nil
		}
	}
}

// generatorNs is workload.Generator.Next's median cost over calls requests
// of prof, timed in batches.
func generatorNs(spans *spanLog, prof workload.Profile, seed uint64, calls int) float64 {
	g := workload.NewGenerator(prof, seed)
	g.SetRecycle(true) // as sim.Run does: no payload outlives its request
	return timeBatches(spans, "workload.next", calls, func(int) { sinkInt += len(g.Next().Data) })
}

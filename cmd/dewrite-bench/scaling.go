package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/experiments"
	"dewrite/internal/sim"
	"dewrite/internal/workload"
)

// The sharded engine's bench-side harness: a correctness smoke (-shards) and
// the hot-loop scaling curve (-speedup). Both run one representative
// application through internal/sim's sharded execution mode, so the bench
// binary exercises the same partition/merge path the acceptance criteria
// pin in internal/sim's own tests.

// smokeApp is the profile both passes use: mcf is the paper's
// dedup-friendliest SPEC application, so cross-shard fingerprint traffic is
// guaranteed to be non-trivial.
const smokeApp = "mcf"

// curveShards fixes the scaling curve's partition width. Eight shards leave
// headroom for the full 1/2/4/8 worker ladder: with fewer shards than
// workers the extra workers would idle and the top of the curve would
// measure the flag, not the engine.
const curveShards = 8

// curveWorkers is the worker ladder the ISSUE pins: the perf block records
// the full curve, not a single high-water point.
var curveWorkers = []int{1, 2, 4, 8}

// smokeOptions bounds the smoke/curve run length: full-scale experiment
// options would make the four curve passes cost as much as the suite itself,
// and the sharded engine's behavior does not change past quick scale.
func smokeOptions(opts experiments.Options) sim.Options {
	req, warm := opts.Requests, opts.Warmup
	if req > 20000 {
		req = 20000
	}
	if warm >= req {
		warm = req / 10
	}
	return sim.Options{Requests: req, Warmup: warm, Seed: opts.Seed}
}

// runShardSmoke validates the sharded engine end to end at the requested
// shard count: shard count 1 must be byte-identical to the sequential
// controller, shard count N must be deterministic across repeated runs and
// worker counts, and the merged counters must match the sequential stream
// totals. Returns an error describing the first violated invariant.
func runShardSmoke(opts experiments.Options, shards, workers int) error {
	prof, ok := workload.ByName(smokeApp)
	if !ok {
		return fmt.Errorf("shard smoke: unknown profile %q", smokeApp)
	}
	simOpts := smokeOptions(opts)
	cfg := config.Default()
	simOpts.Prepared = sim.Prepare(prof, simOpts)

	encode := func(res sim.Result, mem sim.Memory) []byte {
		rep := sim.NewRunReport(res, mem)
		blob, err := json.Marshal(rep)
		if err != nil {
			panic(err)
		}
		return blob
	}

	seqRes, seqMem := sim.RunScheme(sim.SchemeDeWrite, prof, cfg, simOpts)
	seqBlob := encode(seqRes, seqMem)

	oneRes := sim.RunSharded(sim.SchemeDeWrite, prof, cfg, sim.ShardedOptions{Options: simOpts, Shards: 1})
	if !bytes.Equal(seqBlob, encode(oneRes, oneRes.FinalMemory())) {
		return fmt.Errorf("shard smoke: shard count 1 diverged from the sequential controller")
	}

	shardedOpts := sim.ShardedOptions{Options: simOpts, Shards: shards, Workers: workers}
	res := sim.RunSharded(sim.SchemeDeWrite, prof, cfg, shardedOpts)
	blob := encode(res, nil)

	// Determinism: a repeat at a different worker count must be byte-identical.
	repeatOpts := shardedOpts
	repeatOpts.Workers = 1
	repeat := sim.RunSharded(sim.SchemeDeWrite, prof, cfg, repeatOpts)
	if !bytes.Equal(blob, encode(repeat, nil)) {
		return fmt.Errorf("shard smoke: %d-shard run not worker-count-independent", shards)
	}

	// Conservation: the partition must account for exactly the sequential
	// stream — no request lost to routing, none double-counted in a merge.
	if res.Requests != seqRes.Requests || res.MemWrites != seqRes.MemWrites ||
		res.MemReads != seqRes.MemReads {
		return fmt.Errorf("shard smoke: merged counts %d/%d/%d != sequential %d/%d/%d",
			res.Requests, res.MemWrites, res.MemReads,
			seqRes.Requests, seqRes.MemWrites, seqRes.MemReads)
	}
	if res.Sharding == nil || res.Sharding.Epochs == 0 {
		return fmt.Errorf("shard smoke: %d-shard run reported no sharding block", shards)
	}

	fmt.Fprintf(os.Stderr,
		"dewrite-bench: shard smoke ok (%d shards, %d epochs, %d cross-shard dup hits, %s x %d requests)\n",
		shards, res.Sharding.Epochs, res.Sharding.CrossShardDupHits, smokeApp, simOpts.Requests)
	return nil
}

// scalingCurve times the sharded hot loop at each worker count on one shared
// prepared stream and returns the perf-block curve. Speedups are relative to
// the curve's own one-worker point, so the curve is self-normalizing: it
// reports how well the partition converts workers into wall clock,
// independent of the host's absolute speed.
func scalingCurve(opts experiments.Options) []benchScalingPoint {
	prof, ok := workload.ByName(smokeApp)
	if !ok {
		return nil
	}
	simOpts := smokeOptions(opts)
	cfg := config.Default()
	simOpts.Prepared = sim.Prepare(prof, simOpts)

	curve := make([]benchScalingPoint, 0, len(curveWorkers))
	for _, w := range curveWorkers {
		start := time.Now()
		sim.RunSharded(sim.SchemeDeWrite, prof, cfg, sim.ShardedOptions{
			Options: simOpts,
			Shards:  curveShards,
			Workers: w,
		})
		wall := time.Since(start)
		pt := benchScalingPoint{Workers: w, WallMS: float64(wall) / float64(time.Millisecond)}
		if base := curve; len(base) > 0 && pt.WallMS > 0 {
			pt.Speedup = base[0].WallMS / pt.WallMS
		} else {
			pt.Speedup = 1
		}
		curve = append(curve, pt)
		fmt.Fprintf(os.Stderr, "dewrite-bench: scaling %d worker(s): %v (%.2fx)\n",
			w, wall.Round(time.Millisecond), pt.Speedup)
	}
	return curve
}

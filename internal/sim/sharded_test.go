package sim

import (
	"bytes"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/timeline"
	"dewrite/internal/workload"
)

func shardedProfile(t *testing.T) workload.Profile {
	t.Helper()
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf profile")
	}
	return prof
}

func reportBytes(t *testing.T, rep RunReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedOneShardByteIdentical: shard count 1 takes the sequential path,
// so its run report is byte-identical to RunScheme's — including the absence
// of a sharding block.
func TestShardedOneShardByteIdentical(t *testing.T) {
	prof := shardedProfile(t)
	cfg := config.Default()
	base := Options{Requests: 3000, Warmup: 300, Seed: 7}
	prep := Prepare(prof, base)

	seqOpts := base
	seqOpts.Prepared = prep
	seqRes, seqMem := RunScheme(SchemeDeWrite, prof, cfg, seqOpts)
	seq := reportBytes(t, NewRunReport(seqRes, seqMem))

	shOpts := ShardedOptions{Options: seqOpts, Shards: 1}
	shRes := RunSharded(SchemeDeWrite, prof, cfg, shOpts)
	sh := reportBytes(t, NewRunReport(shRes, shRes.FinalMemory()))

	if !bytes.Equal(seq, sh) {
		t.Fatalf("shard-count-1 report differs from sequential:\n--- seq ---\n%s\n--- sharded ---\n%s", seq, sh)
	}
	if bytes.Contains(sh, []byte(`"sharding"`)) {
		t.Fatal("shard-count-1 run serialized a sharding block")
	}
}

// TestShardedDeterministicAcrossWorkers: the BSP epoch protocol makes the
// run a pure function of (stream, config, shard count) — the same sharded
// run produces byte-identical reports at any worker count, with timeline and
// attribution enabled to cover the merge paths.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	prof := shardedProfile(t)
	cfg := config.Default()
	base := Options{Requests: 3000, Warmup: 300, Seed: 7}
	prep := Prepare(prof, base)

	run := func(workers int) []byte {
		opts := ShardedOptions{Options: base, Shards: 4, Workers: workers}
		opts.Prepared = prep
		opts.Timeline = timeline.NewByRequests(500)
		opts.Attr = attr.NewRecorder(64, base.Seed)
		res := RunSharded(SchemeDeWrite, prof, cfg, opts)
		return reportBytes(t, NewRunReport(res, nil))
	}

	first := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !bytes.Equal(first, got) {
			t.Fatalf("workers=%d diverged from workers=1:\n--- w1 ---\n%s\n--- w%d ---\n%s", w, first, w, got)
		}
	}
	if !bytes.Contains(first, []byte(`"sharding"`)) {
		t.Fatal("sharded run lacks the sharding block")
	}
}

// TestShardedCountsSumToStream: the merged counters keep the PR 6 summing
// invariants under sharding — per-shard requests/writes/reads sum exactly to
// the merged totals, which equal the sequential run's totals (both count the
// same measured stream), and repeated runs at each shard count are
// byte-identical.
func TestShardedCountsSumToStream(t *testing.T) {
	prof := shardedProfile(t)
	cfg := config.Default()
	base := Options{Requests: 3000, Warmup: 300, Seed: 7}
	prep := Prepare(prof, base)
	base.Prepared = prep

	seqRes, _ := RunScheme(SchemeDeWrite, prof, cfg, base)

	for _, shards := range []int{2, 8} {
		opts := ShardedOptions{Options: base, Shards: shards}
		res := RunSharded(SchemeDeWrite, prof, cfg, opts)
		again := RunSharded(SchemeDeWrite, prof, cfg, opts)
		a, b := reportBytes(t, NewRunReport(res, nil)), reportBytes(t, NewRunReport(again, nil))
		if !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: repeated run diverged", shards)
		}

		if res.Requests != seqRes.Requests || res.MemWrites != seqRes.MemWrites || res.MemReads != seqRes.MemReads {
			t.Fatalf("shards=%d: merged %d/%d/%d requests/writes/reads, sequential %d/%d/%d",
				shards, res.Requests, res.MemWrites, res.MemReads,
				seqRes.Requests, seqRes.MemWrites, seqRes.MemReads)
		}
		if res.Gen != seqRes.Gen {
			t.Fatalf("shards=%d: generator ground truth diverged: %+v vs %+v", shards, res.Gen, seqRes.Gen)
		}

		rep := res.Sharding
		if rep == nil || rep.Shards != shards || len(rep.PerShard) != shards {
			t.Fatalf("shards=%d: bad sharding block %+v", shards, rep)
		}
		var reqs, writes, reads, lines uint64
		for _, ps := range rep.PerShard {
			reqs += ps.Requests
			writes += ps.MemWrites
			reads += ps.MemReads
			lines += ps.Lines
		}
		if reqs != res.Requests || writes != res.MemWrites || reads != res.MemReads {
			t.Fatalf("shards=%d: per-shard sums %d/%d/%d != merged %d/%d/%d",
				shards, reqs, writes, reads, res.Requests, res.MemWrites, res.MemReads)
		}
		if lines < prof.WorkingSetLines {
			t.Fatalf("shards=%d: shard lines sum to %d < working set %d", shards, lines, prof.WorkingSetLines)
		}
		if rep.Epochs == 0 || rep.Directory.Advances != rep.Epochs {
			t.Fatalf("shards=%d: %d epochs but %d directory advances", shards, rep.Epochs, rep.Directory.Advances)
		}
		if rep.Directory.Fingerprints == 0 {
			t.Fatalf("shards=%d: dedup run published nothing to the directory", shards)
		}
	}
}

// TestShardedProvenanceInvariant: the write-provenance funnel survives the
// merge — the merged per-cause write counters sum exactly to the merged
// ledger total, because each shard's ledger satisfies the invariant against
// its own device and every merged counter is a sum of per-shard counters.
func TestShardedProvenanceInvariant(t *testing.T) {
	prof := shardedProfile(t)
	cfg := config.Default()
	opts := ShardedOptions{
		Options: Options{Requests: 3000, Warmup: 300, Seed: 7, Attr: attr.NewRecorder(256, 7)},
		Shards:  4,
	}
	for _, sch := range []Scheme{SchemeDeWrite, SchemeSecureNVM} {
		res := RunSharded(sch, prof, cfg, opts)
		a := res.Attribution
		if a == nil {
			t.Fatalf("%s: no attribution block", sch)
		}
		var sum uint64
		for _, cs := range a.Causes {
			sum += cs.Writes
		}
		if sum != a.TotalLineWrites {
			t.Errorf("%s: causes sum to %d, total_line_writes says %d", sch, sum, a.TotalLineWrites)
		}
		if sum == 0 {
			t.Errorf("%s: merged ledger recorded nothing", sch)
		}
		// The ledger is cumulative from construction while Result.Device is
		// the post-warmup delta, so the total must cover at least the delta.
		if a.TotalLineWrites < res.Device.Writes {
			t.Errorf("%s: ledger total %d < measured device writes %d", sch, a.TotalLineWrites, res.Device.Writes)
		}
		// Per-bank rows concatenate across shards: each cause's row count is
		// either zero (padded causes merge to all-zero rows of full length)
		// or the whole-device bank count.
		var banks int
		for _, ps := range res.Sharding.PerShard {
			banks += ps.Banks
		}
		for _, cs := range a.Causes {
			if len(cs.BankWrites) != banks {
				t.Errorf("%s: cause %s has %d bank rows, want %d", sch, cs.Cause, len(cs.BankWrites), banks)
			}
		}
	}
}

// TestShardedRejectsSpanCapture: the Chrome trace is whole-machine, so a
// recorder capturing spans is rejected above one shard.
func TestShardedRejectsSpanCapture(t *testing.T) {
	rec := attr.NewRecorder(1, 7)
	rec.CaptureSpans(0)
	opts := ShardedOptions{Options: Options{Requests: 3000, Warmup: 300, Seed: 7, Attr: rec}, Shards: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("sharded run accepted a capturing recorder")
		}
	}()
	RunSharded(SchemeDeWrite, shardedProfile(t), config.Default(), opts)
}

// TestShardedEpochGranularity: the barrier period, DefaultEpochRequests,
// drives the reported epoch count, and the report states it.
func TestShardedEpochGranularity(t *testing.T) {
	const requests = 3000
	opts := ShardedOptions{Options: Options{Requests: requests, Warmup: 200, Seed: 11}, Shards: 2}
	res := RunSharded(SchemeDeWrite, shardedProfile(t), config.Default(), opts)
	wantEpochs := uint64((requests + DefaultEpochRequests - 1) / DefaultEpochRequests)
	if res.Sharding.Epochs != wantEpochs {
		t.Fatalf("%d epochs, want %d", res.Sharding.Epochs, wantEpochs)
	}
	if res.Sharding.EpochRequests != DefaultEpochRequests {
		t.Fatalf("block says %d requests per epoch, want %d", res.Sharding.EpochRequests, DefaultEpochRequests)
	}
}

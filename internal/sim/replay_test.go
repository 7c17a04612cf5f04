package sim

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"dewrite/internal/cache"
	"dewrite/internal/config"
	"dewrite/internal/trace"
	"dewrite/internal/workload"
)

// reportJSON renders the run's full RunReport to JSON bytes.
func reportJSON(t *testing.T, scheme Scheme, prof workload.Profile, opts Options) []byte {
	t.Helper()
	mem := NewMemory(scheme, prof.WorkingSetLines, testConfig())
	res := Run(prof.Name, scheme.String(), mem, prof, opts)
	var buf bytes.Buffer
	if err := NewRunReport(res, mem).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// smallHierarchy is a cache hierarchy small enough that a 1 Ki-line working
// set spills dirty lines to memory.
func smallHierarchy() *cache.Hierarchy {
	levels := config.DefaultHierarchy()
	for i := range levels {
		levels[i].SizeBytes = max(levels[i].SizeBytes/256, levels[i].Ways*config.LineSize*4)
	}
	return cache.NewHierarchy(levels)
}

// streamChunk is workload.Stream's chunk size, where the cases below put
// their chunk boundaries.
const streamChunk = 16384

// TestPreparedReplayMatchesGenerator is the determinism contract of prepared
// traces: replaying a materialized stream must produce a RunReport that is
// byte-identical to driving the generator live with the same seed. The live
// run streams its requests from a producer a chunk ahead, so the cases put
// chunk and warmup boundaries where they could slip, and the 16-line working
// set rewrites every line many times inside the in-flight window, over more
// chunks than the window holds so that chunks and their held buffers are
// recycled: a payload recycled too early would be overwritten before the
// memory reads it.
func TestPreparedReplayMatchesGenerator(t *testing.T) {
	cases := []struct {
		name             string
		lines            uint64
		requests, warmup int
		hierarchy        bool
	}{
		{"mixed", 1 << 10, 6000, 1500, false},
		{"rewritten-in-window", 16, 5*streamChunk + 1000, 2000, false},
		{"below-one-chunk", 1 << 10, 700, 100, false},
		{"one-chunk", 1 << 10, streamChunk, 512, false},
		{"warmup-on-chunk-boundary", 1 << 10, streamChunk + 1, streamChunk, false},
		{"warmup-at-last-request", 1 << 10, 5000, 4999, false},
		{"hierarchy", 1 << 10, 6000, 1500, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof, _ := workload.ByName("mcf")
			prof.WorkingSetLines = tc.lines
			opts := Options{Requests: tc.requests, Warmup: tc.warmup, Seed: 42}
			prep := Prepare(prof, opts)
			for _, scheme := range []Scheme{
				SchemeDeWrite, SchemeDirect, SchemeParallel, SchemeSecureNVM, SchemeShredder,
			} {
				liveOpts, replayOpts := opts, opts
				replayOpts.Prepared = prep
				if tc.hierarchy {
					liveOpts.Hierarchy = smallHierarchy()
					replayOpts.Hierarchy = smallHierarchy()
				}
				live := reportJSON(t, scheme, prof, liveOpts)
				replayed := reportJSON(t, scheme, prof, replayOpts)
				if !bytes.Equal(live, replayed) {
					t.Errorf("%s: prepared replay diverged from live generator run", scheme)
				}
			}
		})
	}
}

// TestRunStreamJoinsProducer: sim.Run stops and joins the producer of its
// request stream on every way out, including a run that panics mid-loop
// (a crash point on a memory built without crash tracking) while the
// producer is blocked on a full in-flight window.
func TestRunStreamJoinsProducer(t *testing.T) {
	prof := smallProfile()
	base := runtime.NumGoroutine()
	waitGoroutines := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	RunScheme(SchemeDeWrite, prof, testConfig(), Options{Requests: 20000, Warmup: 100, Seed: 3})
	waitGoroutines("normal run")

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crash point on an untracked memory did not panic")
			}
		}()
		mem := NewMemory(SchemeDeWrite, prof.WorkingSetLines, testConfig())
		// More requests than the window holds, so the producer is blocked
		// on it when the crash point panics.
		Run(prof.Name, "DeWrite", mem, prof, Options{Requests: 6 * streamChunk, Warmup: 100, Seed: 3, CrashAt: 1000})
	}()
	waitGoroutines("panicked run")
}

// TestPreparedSharedAcrossGoroutines runs the same prepared stream through
// several schemes concurrently; every result must match its sequential twin.
// Run under -race this also proves the stream is shared without writes.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	prof, _ := workload.ByName("lbm")
	prof.WorkingSetLines = 1 << 10
	opts := Options{Requests: 5000, Warmup: 1000, Seed: 7}
	opts.Prepared = Prepare(prof, opts)

	schemes := []Scheme{
		SchemeDeWrite, SchemeDirect, SchemeParallel, SchemeSecureNVM, SchemeShredder,
	}
	want := make([][]byte, len(schemes))
	for i, scheme := range schemes {
		want[i] = reportJSON(t, scheme, prof, opts)
	}

	got := make([][]byte, len(schemes))
	var wg sync.WaitGroup
	for i, scheme := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = reportJSON(t, scheme, prof, opts)
		}()
	}
	wg.Wait()

	for i, scheme := range schemes {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("%s: concurrent run over the shared stream diverged", scheme)
		}
	}
}

// TestPreparedDuplicateBits: a prepared stream's duplicate bit is set on
// exactly the requests where a live generator's duplicate count steps, and
// the bits sum to the stream's duplicate count.
func TestPreparedDuplicateBits(t *testing.T) {
	prof := smallProfile()
	opts := Options{Requests: 3000, Warmup: 300, Seed: 12}
	prep := Prepare(prof, opts)
	gen := workload.NewGenerator(prof, opts.Seed)
	var prev, set uint64
	for i := range prep.Requests {
		gen.Next()
		d := gen.Stats().Duplicates
		if got, want := prep.Duplicate(i), d > prev; got != want {
			t.Fatalf("request %d: duplicate bit %v, generator says %v", i, got, want)
		}
		if prep.Duplicate(i) {
			set++
		}
		prev = d
	}
	if set != prep.GenFinal.Duplicates {
		t.Fatalf("%d duplicate bits, generator counted %d duplicates", set, prep.GenFinal.Duplicates)
	}
	if (&Prepared{Requests: prep.Requests}).Duplicate(0) {
		t.Fatal("a stream not built by Prepare reports a duplicate")
	}
}

// TestPreparedDuplicateIsContentResidency: a prepared stream's duplicate bit
// says whether a write's content was resident in memory when it was written,
// which is what Figure 13 and abl-openloop read it as. The oracle is a map
// from line content to the number of lines holding it. Every write of all
// profiles is checked at two seeds, at the experiments' quick scale (15000
// requests, working sets capped at 8 Ki lines) and full scale (30000
// requests); no read carries the bit.
func TestPreparedDuplicateIsContentResidency(t *testing.T) {
	type scale struct {
		requests int
		wsCap    uint64 // 0: the profile's own working set
	}
	for _, sc := range []scale{{15000, 1 << 13}, {30000, 0}} {
		for _, seed := range []uint64{42, 7} {
			for _, prof := range workload.Profiles() {
				if sc.wsCap != 0 && prof.WorkingSetLines > sc.wsCap {
					prof.WorkingSetLines = sc.wsCap
				}
				prep := Prepare(prof, Options{Requests: sc.requests, Seed: seed})
				byAddr := make(map[uint64]string)
				holders := make(map[string]int)
				for i := range prep.Requests {
					req := &prep.Requests[i]
					if req.Op != trace.Write {
						if prep.Duplicate(i) {
							t.Fatalf("%s seed %d: read %d carries a duplicate bit", prof.Name, seed, i)
						}
						continue
					}
					content := string(req.Data)
					if got, want := prep.Duplicate(i), holders[content] > 0; got != want {
						t.Fatalf("%s seed %d, %d requests: write %d duplicate bit %v, content resident %v",
							prof.Name, seed, sc.requests, i, got, want)
					}
					if old, ok := byAddr[req.Addr]; ok {
						holders[old]--
					}
					byAddr[req.Addr] = content
					holders[content]++
				}
			}
		}
	}
}

// dewrite-serve is the long-running sharded secure-NVM service: the
// securekv example promoted to a network daemon. It partitions a simulated
// DeWrite device across N controller shards (each serving one request at a
// time, under its own lock, on the connection goroutine that read it),
// serves concurrent client streams over a minimal framed TCP protocol
// (PUT/GET/STATS — see proto.go), maintains the cross-shard fingerprint
// directory behind the same epoch-barrier contract the deterministic
// simulator uses, and exposes an ops-grade observability surface: request
// and error counters, native latency histograms, per-shard balance gauges,
// barrier stall accounting, /readyz and /debug/slow, and structured JSON
// logs (see ops.go for the metric table, DESIGN.md §13 for the model).
//
// Production hardening (DESIGN.md §14): a bound on the requests waiting for
// each shard with watermark-based load shedding (typed BUSY responses),
// per-request deadlines checked once the shard lock is held, periodic
// crash-safe snapshots with kill -9 recovery, and a seeded deterministic
// chaos mode for soak testing.
//
// Usage:
//
//	dewrite-serve [-addr :7420] [-metrics :9420] [-shards 4] [-lines 65536]
//	              [-advance-every 1024] [-slow-k 32]
//	              [-queue-depth 64] [-deadline 0] [-shed-high 0.9] [-shed-low 0.5]
//	              [-snapshot-dir DIR] [-snapshot-every 8] [-snapshot-keep 3]
//	              [-chaos SEED]
//	              [-log stderr|PATH] [-log-level info]
//
// Load-generator mode (used by the CI chaos smoke and handy interactively)
// drives a running daemon with the retrying client and prints a JSON
// summary of its books instead of serving:
//
//	dewrite-serve -load ADDR [-load-requests 4096] [-load-conns 4]
//	              [-load-seed 1] [-load-deadline 2s] [-load-value 64]
//
// The service is a workload harness for the simulator, not a real database:
// values live in simulated encrypted NVM lines and all persistence is
// in-memory except the snapshot directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dewrite/internal/chaos"
	"dewrite/internal/rng"
)

// buildLogger constructs the optional structured logger: dest "" disables
// logging entirely (the default — the hot path pays one nil check), "stderr"
// streams JSON records to stderr, anything else appends to that file.
func buildLogger(dest, level string) (*slog.Logger, func(), error) {
	if dest == "" {
		return nil, func() {}, nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, nil, fmt.Errorf("dewrite-serve: -log-level %q: %w", level, err)
	}
	w, cleanup := os.Stderr, func() {}
	if dest != "stderr" {
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("dewrite-serve: -log: %w", err)
		}
		w, cleanup = f, func() { f.Close() }
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lv})), cleanup, nil
}

// loadSummary is the JSON the load generator prints: the client-side half of
// the books-balance equation, summed over every connection.
type loadSummary struct {
	Requests uint64     `json:"requests"` // attempted logical requests (puts+gets)
	Failed   uint64     `json:"failed"`   // logical requests that exhausted retries
	Stats    RetryStats `json:"stats"`    // summed RetryClient counters
}

// runLoad drives addr with conns retrying clients, each issuing a
// deterministic put/get mix derived from seed, and prints a loadSummary.
func runLoad(addr string, requests, conns int, seed uint64, deadline time.Duration, valueLen int) error {
	if conns < 1 {
		conns = 1
	}
	if valueLen > ValueCap {
		valueLen = ValueCap
	}
	var mu sync.Mutex
	var sum loadSummary
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := NewRetryClient(RetryOptions{
				Addr:     addr,
				Deadline: deadline,
				Seed:     seed + uint64(id)*0x9e3779b97f4a7c15,
			})
			defer cl.Close()
			src := rng.New(seed ^ uint64(id)<<32)
			var failed uint64
			n := requests / conns
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k-%d-%d", id, src.Uint64n(uint64(n)))
				if src.Bool(0.6) {
					val := make([]byte, valueLen)
					for j := range val {
						val[j] = byte(src.Uint64n(8)) // low entropy → dedup hits
					}
					if err := cl.Put(key, val); err != nil {
						failed++
					}
				} else {
					if _, _, err := cl.Get(key); err != nil {
						failed++
					}
				}
			}
			st := cl.Stats()
			mu.Lock()
			sum.Requests += uint64(n)
			sum.Failed += failed
			sum.Stats.Received += st.Received
			sum.Stats.OK += st.OK
			sum.Stats.NotFound += st.NotFound
			sum.Stats.Busy += st.Busy
			sum.Stats.Deadline += st.Deadline
			sum.Stats.ErrResponses += st.ErrResponses
			sum.Stats.TransportErrors += st.TransportErrors
			sum.Stats.Reconnects += st.Reconnects
			sum.Stats.Retries += st.Retries
			sum.Stats.GiveUps += st.GiveUps
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func main() {
	addr := flag.String("addr", ":7420", "TCP listen address for the framed KV protocol")
	metrics := flag.String("metrics", ":9420", "HTTP listen address for /metrics, /readyz, /healthz, /debug/slow, /debug/vars (empty disables)")
	shards := flag.Int("shards", 4, "controller shards, each serving one request at a time under its own lock")
	lines := flag.Uint64("lines", 1<<16, "data lines striped across shards")
	advanceEvery := flag.Uint64("advance-every", 1024, "requests between cross-shard directory advances")
	slowK := flag.Int("slow-k", 32, "capacity of the /debug/slow slowest-recent-requests ring")
	queueDepth := flag.Int("queue-depth", 64, "per-shard bound on requests waiting for the shard lock; overflow sheds with BUSY")
	deadline := flag.Duration("deadline", 0, "default per-request deadline for frames that carry none (0 disables)")
	shedHigh := flag.Float64("shed-high", 0.9, "drain-mode entry watermark as a fraction of queue-depth")
	shedLow := flag.Float64("shed-low", 0.5, "drain-mode exit watermark as a fraction of queue-depth")
	snapshotDir := flag.String("snapshot-dir", "", "directory for crash-safe state snapshots (empty disables)")
	snapshotEvery := flag.Uint64("snapshot-every", 8, "epoch advances between snapshots")
	snapshotKeep := flag.Int("snapshot-keep", 3, "snapshot generations to retain")
	chaosSeed := flag.Uint64("chaos", 0, "arm the deterministic fault plan with this seed (0 disables)")
	logDest := flag.String("log", "", `structured JSON log destination: "stderr" or a file path (empty disables)`)
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")

	loadAddr := flag.String("load", "", "load-generator mode: drive this daemon address instead of serving")
	loadRequests := flag.Int("load-requests", 4096, "load mode: total logical requests across connections")
	loadConns := flag.Int("load-conns", 4, "load mode: concurrent client connections")
	loadSeed := flag.Uint64("load-seed", 1, "load mode: workload and retry-jitter seed")
	loadDeadline := flag.Duration("load-deadline", 2*time.Second, "load mode: per-request deadline")
	loadValue := flag.Int("load-value", 64, "load mode: value length in bytes")
	flag.Parse()

	if *loadAddr != "" {
		if err := runLoad(*loadAddr, *loadRequests, *loadConns, *loadSeed, *loadDeadline, *loadValue); err != nil {
			log.Fatal(err)
		}
		return
	}

	logger, logClose, err := buildLogger(*logDest, *logLevel)
	if err != nil {
		log.Fatal(err)
	}
	defer logClose()

	var plan *chaos.Plan
	if *chaosSeed != 0 {
		plan = chaos.Default(*chaosSeed)
	}

	srv, err := NewServer(Config{
		Shards: *shards, Lines: *lines, AdvanceEvery: *advanceEvery,
		SlowK: *slowK, Logger: logger,
		QueueDepth: *queueDepth, DefaultDeadline: *deadline,
		ShedHighWater: *shedHigh, ShedLowWater: *shedLow,
		SnapshotDir: *snapshotDir, SnapshotEvery: *snapshotEvery, SnapshotKeep: *snapshotKeep,
		Chaos: plan,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The ops endpoint comes up before Serve recovers state and publishes
	// generation zero, so a load balancer probing /readyz sees 503 until the
	// daemon can actually answer requests (recovery + scrub included) —
	// /healthz is process liveness, /readyz is readiness.
	if *metrics != "" {
		m, err := startOps(*metrics, srv)
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		fmt.Printf("dewrite-serve: metrics on http://%s/metrics (readyz, debug/slow alongside)\n", m.Addr())
	}

	if err := srv.Serve(*addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dewrite-serve: %d shards over %d lines, listening on %s\n", *shards, *lines, srv.Addr())
	if plan != nil {
		fmt.Printf("dewrite-serve: chaos plan armed (seed %d)\n", plan.Seed)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dewrite-serve: shutting down")
	srv.Close()
}

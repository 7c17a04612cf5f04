package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dewrite/internal/chaos"
	"dewrite/internal/monitor"
	"dewrite/internal/rng"
)

// requestsTotal sums serve_requests_total across ops — one half of the
// books-balance equation.
func requestsTotal(reg *monitor.Registry) uint64 {
	var total uint64
	for _, op := range []string{"put", "get", "stats", "unknown"} {
		total += reg.Counter("serve_requests_total", monitor.Label{Key: "op", Value: op}).Value()
	}
	return total
}

// settle polls cond for up to a second. The daemon counts a response just
// after flushing it, so its counters may trail what a client has read.
func settle(cond func() bool) {
	for deadline := time.Now().Add(time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
}

// checkBooks asserts the invariant every response flushed to a client is
// counted exactly once: client-received == requests_total + shed_total.
func checkBooks(t *testing.T, srv *Server, received uint64) {
	t.Helper()
	counted := func() uint64 { return requestsTotal(srv.Registry()) + srv.m.shedTotal() }
	settle(func() bool { return counted() == received })
	if got := counted(); got != received {
		t.Fatalf("books unbalanced: clients received %d responses, server counted %d (requests %d + sheds %d)",
			received, got, requestsTotal(srv.Registry()), srv.m.shedTotal())
	}
}

// TestAdmissionControlSheds pins the backpressure contract: with every
// request stalled and a tiny queue bound, a concurrent burst must be answered —
// some OK, the overflow BUSY — with zero requests silently dropped and the
// shed counters carrying exactly the BUSY responses.
func TestAdmissionControlSheds(t *testing.T) {
	srv, err := NewServer(Config{
		Shards: 1, Lines: 1 << 10, AdvanceEvery: 1 << 20,
		QueueDepth: 2,
		// Stall every request so the queue backs up deterministically.
		Chaos: &chaos.Plan{Seed: 7, StallRate: 1, StallNs: 10_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	const clients, perClient = 8, 4
	var mu sync.Mutex
	var received, busy, ok uint64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dial(srv.Addr())
			defer c.Close()
			for k := 0; k < perClient; k++ {
				status, _, err := c.try(OpPut, fmt.Sprintf("k%d-%d", cl, k), []byte("v"))
				if err != nil {
					t.Errorf("client %d: transport error mid-burst: %v", cl, err)
					return
				}
				mu.Lock()
				received++
				switch status {
				case StatusOK:
					ok++
				case StatusBusy:
					busy++
				default:
					t.Errorf("unexpected status %s", statusName(status))
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()

	if busy == 0 {
		t.Fatal("stalled single shard with queue depth 2 shed nothing")
	}
	if ok == 0 {
		t.Fatal("everything shed: admission never let a request through")
	}
	checkBooks(t, srv, received)
	if got := srv.m.shedTotal(); got != busy {
		t.Fatalf("serve_shed_total = %d, clients saw %d BUSY responses", got, busy)
	}
}

// TestDeadlineExpiresInQueue: with the shard stalled, a queued request whose
// wire deadline has passed is answered StatusDeadline without touching the
// controller, and lands in serve_shed_total{cause="deadline"}.
func TestDeadlineExpiresInQueue(t *testing.T) {
	srv, err := NewServer(Config{
		Shards: 1, Lines: 1 << 10, AdvanceEvery: 1 << 20,
		QueueDepth: 16,
		Chaos:      &chaos.Plan{Seed: 3, StallRate: 1, StallNs: 30_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	// Pipeline several 1ms-deadline requests: each execution stalls 30ms
	// under the shard lock before the deadline check, so budgets are gone.
	const frames = 6
	for k := 0; k < frames; k++ {
		if err := writeRequest(bw, OpPut, fmt.Sprintf("d%d", k), []byte("v"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var deadlined int
	for k := 0; k < frames; k++ {
		status, _, err := readResponse(br)
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		if status == StatusDeadline {
			deadlined++
		}
	}
	if deadlined == 0 {
		t.Fatal("no queued request expired despite 1ms budgets against 30ms stalls")
	}
	// checkBooks settles the flush-then-count window, so the per-cause
	// counter read after it is final.
	checkBooks(t, srv, frames)
	cause := srv.reg.Counter("serve_shed_total",
		monitor.Label{Key: "shard", Value: "0"},
		monitor.Label{Key: "cause", Value: "deadline"}).Value()
	if cause != uint64(deadlined) {
		t.Fatalf("shed{cause=deadline} = %d, clients saw %d DEADLINE responses", cause, deadlined)
	}
}

// TestSnapshotRecoveryAfterCrash is the kill -9 contract: state as of the
// last committed snapshot survives an ungraceful abort — the restart scrubs
// and serves byte-matching GETs — while writes after that snapshot are
// honestly absent, and /readyz stays down until recovery completes.
func TestSnapshotRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 4, Lines: 1 << 12, AdvanceEvery: 64,
		SnapshotDir: dir, SnapshotEvery: 1 << 20, // explicit snapshots only
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	want := make(map[string][]byte)
	c := dial(srv.Addr())
	src := rng.New(42)
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("durable:%d", k)
		val := make([]byte, 1+src.Intn(ValueCap-1))
		for i := range val {
			val[i] = byte(src.Uint64n(16))
		}
		if err := c.Put(key, val); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if !srv.Snapshot() {
		t.Fatal("explicit snapshot did not commit")
	}
	// Writes after the snapshot die with the crash.
	if err := c.Put("ephemeral", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Abort() // kill -9, in process: no drain, no final snapshot

	restarted, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Ready() {
		t.Fatal("server ready before Serve ran recovery")
	}
	if err := restarted.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Close)
	if !restarted.Ready() {
		t.Fatal("server not ready after recovery + generation zero")
	}

	reg := restarted.Registry()
	if gen := reg.Get("serve_recovery_generation"); gen != 1 {
		t.Fatalf("serve_recovery_generation = %v, want 1", gen)
	}
	if keys := reg.Get("serve_recovery_keys"); keys != float64(len(want)) {
		t.Fatalf("serve_recovery_keys = %v, want %d", keys, len(want))
	}
	if dropped := reg.Get("serve_recovery_dropped_keys"); dropped != 0 {
		t.Fatalf("clean snapshot recovery dropped %v keys", dropped)
	}

	c2 := dial(restarted.Addr())
	defer c2.Close()
	for key, val := range want {
		got, found, err := c2.Get(key)
		if err != nil || !found {
			t.Fatalf("recovered get %s: found=%v err=%v", key, found, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("recovered %s = %q, want %q", key, got, val)
		}
	}
	if _, found, err := c2.Get("ephemeral"); err != nil || found {
		t.Fatalf("post-snapshot key survived the crash: found=%v err=%v", found, err)
	}
	// Dedup state came back too: re-putting an existing value must
	// register in the restored tables (no crash, correct refcounts) and the
	// cross-shard directory must have been republished.
	for key, val := range want {
		if err := c2.Put(key, val); err != nil {
			t.Fatalf("re-put %s onto recovered state: %v", key, err)
		}
		break
	}
	restarted.Advance()
	if reg.Get("serve_directory_fingerprints") == 0 {
		t.Fatal("cross-shard directory empty after recovery republish")
	}
}

// TestSnapshotChaosAbortFallsBack: a chaos plan that kills every mid-run
// snapshot leaves only debris, but the clean-shutdown snapshot (which
// bypasses the plan) still commits, and a restart steps over the debris.
func TestSnapshotChaosAbortFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, Lines: 1 << 10, AdvanceEvery: 64,
		SnapshotDir: dir, SnapshotEvery: 1 << 20,
		Chaos: &chaos.Plan{Seed: 5, SnapshotAbortRate: 1},
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dial(srv.Addr())
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if srv.Snapshot() {
		t.Fatal("snapshot committed under an abort-rate-1 plan")
	}
	if got := srv.m.snapshotAborts.Value(); got != 1 {
		t.Fatalf("serve_snapshot_aborts_total = %d, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".tmp") {
		t.Fatalf("aborted snapshot left %v, want one .tmp debris dir (err %v)", entries, err)
	}
	c.Close()
	srv.Close() // clean shutdown: snapshot bypasses chaos

	restarted, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Close)
	if restarted.Registry().Get("serve_recovery_keys") != 1 {
		t.Fatalf("recovery after debris: %v keys", restarted.Registry().Get("serve_recovery_keys"))
	}
	c2 := dial(restarted.Addr())
	defer c2.Close()
	got, found, err := c2.Get("k")
	if err != nil || !found || string(got) != "v" {
		t.Fatalf("get after debris recovery: %q %v %v", got, found, err)
	}
}

// TestRecoveryRejectsConfigSkew: a snapshot taken under a different shard
// count must fail recovery loudly, not silently misroute keys.
func TestRecoveryRejectsConfigSkew(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Shards: 4, Lines: 1 << 10, SnapshotDir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if !srv.Snapshot() {
		t.Fatal("snapshot did not commit")
	}
	srv.Close()

	skewed, err := NewServer(Config{Shards: 2, Lines: 1 << 10, SnapshotDir: dir, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer skewed.Close()
	if err := skewed.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("recovery accepted a snapshot from a 4-shard layout into 2 shards")
	} else if !strings.Contains(err.Error(), "shards") {
		t.Fatalf("skew error does not name the mismatched field: %v", err)
	}
}

// TestRetryClientRidesThroughResets: with every connection doomed to an
// early reset, the retrying client must still complete its workload through
// reconnects, and the books must balance despite the carnage.
func TestRetryClientRidesThroughResets(t *testing.T) {
	srv, err := NewServer(Config{
		Shards: 2, Lines: 1 << 10, AdvanceEvery: 64,
		Chaos: &chaos.Plan{Seed: 11, ConnResetRate: 1, ConnResetMaxFrames: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	cl := NewRetryClient(RetryOptions{Addr: srv.Addr(), Seed: 99, Deadline: 5 * time.Second})
	defer cl.Close()
	for k := 0; k < 40; k++ {
		key := fmt.Sprintf("r%d", k)
		if err := cl.Put(key, []byte(key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		got, found, err := cl.Get(key)
		if err != nil || !found || string(got) != key {
			t.Fatalf("get %s: %q %v %v", key, got, found, err)
		}
	}
	st := cl.Stats()
	if st.Reconnects == 0 || st.TransportErrors == 0 {
		t.Fatalf("every connection was doomed yet stats saw no reconnects: %+v", st)
	}
	if st.GiveUps != 0 {
		t.Fatalf("client gave up %d times under reset-only chaos", st.GiveUps)
	}
	checkBooks(t, srv, st.Received)
}

// TestChaosSoakBooksBalance is the deterministic soak: the full fault plan
// (resets, slow-loris, stalls, snapshot aborts) against concurrent retrying
// clients, then three audits — the books balance to the response, a crash
// recovery restores the clean-shutdown reference byte for byte, and the
// whole run is reproducible from its seeds.
func TestChaosSoakBooksBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	dir := t.TempDir()
	plan := chaos.Default(1234)
	plan.StallNs = 2_000_000  // soften the stalls: -race CI wall clock
	plan.SlowReadNs = 500_000 // likewise the slow-loris pacing
	cfg := Config{
		Shards: 4, Lines: 1 << 12, AdvanceEvery: 128,
		QueueDepth: 32, SnapshotDir: dir, SnapshotEvery: 4, SnapshotKeep: 2,
		Chaos: plan,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 150
	type result struct {
		stats RetryStats
		want  map[string][]byte // this client's final value per key (disjoint key spaces)
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := NewRetryClient(RetryOptions{
				Addr:     srv.Addr(),
				Deadline: 2 * time.Second,
				Seed:     uint64(cl) + 1,
			})
			defer c.Close()
			src := rng.New(uint64(cl)*7 + 1)
			want := make(map[string][]byte)
			for k := 0; k < perClient; k++ {
				key := fmt.Sprintf("soak:%d:%d", cl, src.Intn(40))
				if src.Bool(0.7) {
					val := make([]byte, 1+src.Intn(60))
					for i := range val {
						val[i] = byte(src.Uint64n(4))
					}
					if err := c.Put(key, val); err != nil {
						t.Errorf("soak put %s: %v", key, err)
						return
					}
					want[key] = val
				} else {
					got, found, err := c.Get(key)
					if err != nil {
						t.Errorf("soak get %s: %v", key, err)
						return
					}
					if prev, stored := want[key]; stored && (!found || !bytes.Equal(got, prev)) {
						t.Errorf("soak readback %s: found=%v got=%q want=%q", key, found, got, prev)
						return
					}
				}
			}
			results[cl] = result{stats: c.Stats(), want: want}
		}(cl)
	}
	wg.Wait()
	if t.Failed() {
		srv.Close()
		return
	}

	var received uint64
	expected := make(map[string][]byte)
	for _, r := range results {
		received += r.stats.Received
		for k, v := range r.want {
			expected[k] = v
		}
	}
	checkBooks(t, srv, received)
	srv.Close() // clean shutdown: reference snapshot, chaos bypassed

	// Crash-recovery audit: boot from the clean-shutdown snapshot, kill -9
	// immediately after re-snapshotting, boot again — every surviving state
	// must byte-match what the clients last wrote.
	for round := 0; round < 2; round++ {
		restarted, err := NewServer(Config{
			Shards: cfg.Shards, Lines: cfg.Lines, AdvanceEvery: cfg.AdvanceEvery,
			SnapshotDir: dir, SnapshotEvery: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := restarted.Serve("127.0.0.1:0"); err != nil {
			t.Fatalf("round %d recovery: %v", round, err)
		}
		reg := restarted.Registry()
		if reg.Get("serve_recovery_generation") == 0 {
			t.Fatalf("round %d recovered nothing", round)
		}
		if dropped := reg.Get("serve_recovery_dropped_keys"); dropped != 0 {
			t.Fatalf("round %d scrub dropped %v keys from clean snapshots", round, dropped)
		}
		c := dial(restarted.Addr())
		for key, val := range expected {
			got, found, err := c.Get(key)
			if err != nil || !found || !bytes.Equal(got, val) {
				t.Fatalf("round %d recovered %s = %q (found=%v err=%v), want %q",
					round, key, got, found, err, val)
			}
		}
		c.Close()
		if !restarted.Snapshot() {
			t.Fatalf("round %d re-snapshot failed", round)
		}
		restarted.Abort() // kill -9 for the next round
	}
}

// TestReadyzDuringDrain: Ready flips to false the moment Close begins and
// the serve_draining gauge records the drain, while in-flight work still
// completes (covered by TestServeGracefulShutdown).
func TestReadyzDuringDrain(t *testing.T) {
	srv := startTestServer(t, 2)
	if !srv.Ready() {
		t.Fatal("server not ready after Serve")
	}
	if srv.reg.Get("serve_draining") != 0 {
		t.Fatal("serve_draining nonzero before Close")
	}
	srv.Close()
	if srv.Ready() {
		t.Fatal("server still ready after Close")
	}
	if srv.reg.Get("serve_draining") != 1 {
		t.Fatal("serve_draining gauge not set during shutdown")
	}
}

// TestSnapshotPeriodicTrigger: with SnapshotEvery=1 every epoch advance
// commits a generation, and Prune holds the directory at SnapshotKeep.
func TestSnapshotPeriodicTrigger(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{
		Shards: 2, Lines: 1 << 10, AdvanceEvery: 8,
		SnapshotDir: dir, SnapshotEvery: 1, SnapshotKeep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := dial(srv.Addr())
	for k := 0; k < 64; k++ {
		if err := c.Put(fmt.Sprintf("p%d", k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close()

	if got := srv.m.snapshots.Value(); got < 2 {
		t.Fatalf("serve_snapshots_total = %d after 64 puts at AdvanceEvery=8, SnapshotEvery=1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens int
	for _, e := range entries {
		if e.IsDir() && !strings.HasSuffix(e.Name(), ".tmp") {
			gens++
			if _, err := os.Stat(filepath.Join(dir, e.Name(), "manifest.json")); err != nil {
				t.Fatalf("generation %s lacks a manifest", e.Name())
			}
		}
	}
	if gens > 2 {
		t.Fatalf("%d generations retained, SnapshotKeep=2", gens)
	}
}

// TestRetryClientRefusesUnframable: a request the client cannot frame (a
// value over ValueCap, a key over MaxKeyLen) fails on its one attempt, with
// no backoff, no transport error and no reconnect, and the connection it
// leaves serves the next request.
func TestRetryClientRefusesUnframable(t *testing.T) {
	srv := startTestServer(t, 2)
	cl := NewRetryClient(RetryOptions{Addr: srv.Addr(), Seed: 5})
	defer cl.Close()
	if err := cl.Put("k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	conn := cl.conn
	if err := cl.Put("big", make([]byte, ValueCap+1)); !errors.Is(err, errUnframable) {
		t.Fatalf("oversized value: %v, want an unframable-request error", err)
	}
	if _, _, err := cl.Get(strings.Repeat("k", MaxKeyLen+1)); !errors.Is(err, errUnframable) {
		t.Fatalf("oversized key: %v, want an unframable-request error", err)
	}
	if err := cl.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if cl.conn != conn {
		t.Error("the client replaced a healthy connection")
	}
	want := RetryStats{Received: 2, OK: 2}
	if st := cl.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	checkBooks(t, srv, 2)
}

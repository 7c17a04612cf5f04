package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dewrite/internal/rng"
)

func startTestServer(t *testing.T, shards int) *Server {
	t.Helper()
	srv, err := NewServer(Config{Shards: shards, Lines: 1 << 12, AdvanceEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// dial returns a client that makes one attempt per request, so a test sees
// every verdict and transport error as it happens.
func dial(addr string) *RetryClient {
	return NewRetryClient(RetryOptions{Addr: addr, MaxAttempts: 1})
}

// TestServePutGetRoundTrip covers the framed protocol basics on one stream:
// values round-trip exactly (length prefix, not NUL-trimming), missing keys
// answer NotFound, and oversized values are rejected client-side.
func TestServePutGetRoundTrip(t *testing.T) {
	srv := startTestServer(t, 4)
	c := dial(srv.Addr())
	defer c.Close()

	want := []byte("value with trailing zeros\x00\x00")
	if err := c.Put("k1", want); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get("k1")
	if err != nil || !found {
		t.Fatalf("get k1: found=%v err=%v", found, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("get k1 = %q, want %q", got, want)
	}

	if _, found, err = c.Get("absent"); err != nil || found {
		t.Fatalf("get absent: found=%v err=%v", found, err)
	}

	if err := c.Put("big", make([]byte, ValueCap+1)); err == nil {
		t.Fatal("oversized value accepted")
	}

	// Overwrite in place.
	if err := c.Put("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = c.Get("k1")
	if string(got) != "v2" {
		t.Fatalf("after overwrite got %q", got)
	}
}

// TestServeConcurrentStreams is the end-to-end load test: many client
// connections hammer the sharded service concurrently with a securekv-style
// workload (most users share a few preset blobs), every stream verifies its
// own reads, and afterwards the dedup evidence is visible in the gauges —
// shared presets stored once per shard at most, and the cross-shard
// directory populated at the barriers. Requests run on their connection
// goroutines under the shard locks; the second case has 8 clients contend
// for 3 shards with a barrier after nearly every request, and every shard's
// dedup tables must still be consistent once the server has closed.
func TestServeConcurrentStreams(t *testing.T) {
	for _, tc := range []struct {
		shards       int
		advanceEvery uint64
	}{{4, 64}, {3, 2}} {
		t.Run(fmt.Sprintf("shards=%d,advance=%d", tc.shards, tc.advanceEvery), func(t *testing.T) {
			testConcurrentStreams(t, tc.shards, tc.advanceEvery)
		})
	}
}

func testConcurrentStreams(t *testing.T, shards int, advanceEvery uint64) {
	const (
		clients = 8
		keys    = 100
	)
	srv, err := NewServer(Config{Shards: shards, Lines: 1 << 12, AdvanceEvery: advanceEvery})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	presets := [][]byte{
		[]byte(`{"theme":"dark","lang":"en","notifications":true}`),
		[]byte(`{"theme":"light","lang":"en","notifications":true}`),
		[]byte(`{"theme":"dark","lang":"de","notifications":false}`),
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dial(srv.Addr())
			defer c.Close()
			src := rng.New(uint64(cl) + 1)
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("user:%d:%d:config", cl, k)
				var want []byte
				if src.Bool(0.9) {
					want = presets[src.Intn(len(presets))]
				} else {
					want = []byte(fmt.Sprintf(`{"custom":%d}`, src.Uint64()))
				}
				if err := c.Put(key, want); err != nil {
					errs <- fmt.Errorf("client %d put %s: %w", cl, key, err)
					return
				}
				got, found, err := c.Get(key)
				if err != nil || !found || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("client %d readback %s: found=%v err=%v got=%q want=%q",
						cl, key, found, err, got, want)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	srv.Advance() // fold the tail epoch so the gauges are current

	reg := srv.Registry()
	var puts, dup float64
	for i := 0; i < shards; i++ {
		labels := "\x00" + `{shard="` + fmt.Sprint(i) + `"}` // labeled-gauge key form
		puts += reg.Get("serve_puts" + labels)
		dup += reg.Get("serve_shard_" + fmt.Sprint(i) + ".dup_eliminated")
	}
	if puts != clients*keys {
		t.Fatalf("gauges count %v puts, want %d", puts, clients*keys)
	}
	if dup == 0 {
		t.Fatal("preset-heavy workload eliminated no duplicate writes")
	}
	if reg.Get("serve_directory_fingerprints") == 0 {
		t.Fatal("cross-shard directory is empty after advances")
	}

	// The STATS op serves the same snapshot over the wire.
	c := dial(srv.Addr())
	raw, err := c.ServerStats()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if snap["serve_directory_advances"] == 0 {
		t.Fatalf("stats snapshot missing advances: %v", snap)
	}

	srv.Close()
	for _, w := range srv.shards {
		if err := w.ctrl.Tables().CheckInvariants(); err != nil {
			t.Fatalf("shard %d dedup tables after close: %v", w.id, err)
		}
	}
}

// TestServeShardFull exercises the capacity error path: a one-line shard
// rejects the second distinct key routed to it with a clean error rather
// than corrupting state.
func TestServeShardFull(t *testing.T) {
	srv, err := NewServer(Config{Shards: 1, Lines: 1, AdvanceEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := dial(srv.Addr())
	defer c.Close()

	if err := c.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("y")); err == nil {
		t.Fatal("second key fit in a one-line shard")
	}
	// The stored key still works.
	got, found, err := c.Get("a")
	if err != nil || !found || string(got) != "x" {
		t.Fatalf("get a after full: %q %v %v", got, found, err)
	}
}

// TestNewServerRejectsOversizedShard: a shard's dedup tables link their
// free locations by 32-bit numbers, so a shard of 2^32 lines is refused as
// a configuration error, not a panic.
func TestNewServerRejectsOversizedShard(t *testing.T) {
	if _, err := NewServer(Config{Shards: 1, Lines: 1 << 32}); err == nil || !strings.Contains(err.Error(), "2^32-1") {
		t.Fatalf("NewServer with a 2^32-line shard: err = %v", err)
	}
}

// TestServeRequestAllocations pins the daemon's request path: once a key is
// known and the controller has touched its lines, decoding a frame, admitting
// and running a PUT and a GET on the connection's buffers, and encoding both
// responses allocate nothing. Each PUT to one key duplicates a value two
// anchor keys hold, so it takes the dedup path (fingerprint, lookup, verify
// read, remap). Another key's PUTs alternate a pooled value and one no other
// key holds, so each pass frees its slot and places unique data in it again.
// The warm-up takes the map entries and the controller's first-touch growth
// out of the count.
func TestServeRequestAllocations(t *testing.T) {
	srv, err := NewServer(Config{Shards: 1, Lines: 1 << 10, AdvanceEvery: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bufs := new(connBufs)
	bw := bufio.NewWriter(io.Discard)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var bad string
	serve := func(frames []byte) {
		rd.Reset(frames)
		br.Reset(rd)
		for {
			op, key, val, _, err := readRequest(br, bufs.frame[:])
			if err != nil {
				if err != io.EOF {
					bad = err.Error()
				}
				return
			}
			w := srv.shards[srv.shardOf(key)]
			if srv.admit(w) >= 0 {
				bad = "request shed"
				return
			}
			resp := srv.run(w, shardReq{op: op, key: key, val: val}, &bufs.line)
			if resp.status != StatusOK {
				bad = "status " + statusName(resp.status)
				return
			}
			if err := writeResponse(bw, resp.status, resp.val); err != nil {
				bad = err.Error()
				return
			}
			if err := bw.Flush(); err != nil {
				bad = err.Error()
				return
			}
		}
	}
	frame := func(b *bytes.Buffer, op byte, key, val string) {
		if err := writeRequest(b, op, key, []byte(val), 0); err != nil {
			t.Fatal(err)
		}
	}
	v1, v2 := "first value", "second, longer value"
	var anchors, pass bytes.Buffer
	frame(&anchors, OpPut, "anchor:1", v1)
	frame(&anchors, OpPut, "anchor:2", v2)
	frame(&pass, OpPut, "user:7", v1)
	frame(&pass, OpGet, "user:7", "")
	frame(&pass, OpPut, "user:7", v2)
	frame(&pass, OpGet, "user:7", "")
	frame(&pass, OpPut, "user:9", v1)
	frame(&pass, OpPut, "user:9", "a value no other key holds")

	serve(anchors.Bytes())
	for i := 0; i < 64; i++ {
		serve(pass.Bytes())
	}
	if bad != "" {
		t.Fatal(bad)
	}
	// Mallocs are counted exactly over long windows, so an allocation on a
	// fraction of requests fails too (AllocsPerRun truncates its average).
	// The passes are identical, so an allocation on the path recurs in every
	// window, while on a contended host the runtime itself can allocate once
	// in a window: the pin takes the fewer of two windows' counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	window := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 500; i++ {
			serve(pass.Bytes())
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if n := min(window(), window()); n != 0 || bad != "" {
		t.Fatalf("500 passes of four PUTs and two GETs of known keys allocated %d times (error %q)", n, bad)
	}
	// Per pass, three PUTs are duplicates and user:9's other one is unique,
	// as are the anchors' first PUTs.
	const passes = 64 + 1000
	if st := srv.shards[0].ctrl.Tables().Snapshot(); st.Duplicates != 3*passes || st.Uniques != 2+passes {
		t.Fatalf("%d duplicate and %d unique PUTs, want %d and %d", st.Duplicates, st.Uniques, 3*passes, 2+passes)
	}
}

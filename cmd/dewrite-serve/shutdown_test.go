package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dewrite/internal/monitor"
)

// TestServeGracefulShutdown pins the shutdown contract: Close during a
// concurrent load burst drops no response — every request a client got an
// answer for is counted, and every counted request reached a client, so the
// books balance exactly. It also checks the listener closes exactly once
// (concurrent Close calls are safe and Dial fails afterwards) and that the
// final gauge state is consistent with the counters.
func TestServeGracefulShutdown(t *testing.T) {
	srv, err := NewServer(Config{Shards: 4, Lines: 1 << 12, AdvanceEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var (
		okPuts  atomic.Uint64 // responses received for PUT frames
		okGets  atomic.Uint64 // responses received for GET frames
		started sync.WaitGroup
		wg      sync.WaitGroup
	)
	started.Add(clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dial(srv.Addr())
			defer c.Close()
			first := true
			for k := 0; ; k++ {
				key := fmt.Sprintf("c%d:k%d", cl, k%50)
				if err := c.Put(key, []byte(fmt.Sprintf("v%d", k))); err != nil {
					if first { // the server closes only after every first put
						t.Errorf("client %d first put: %v", cl, err)
					}
					break // transport teardown: the server is closing
				}
				okPuts.Add(1)
				if _, found, err := c.Get(key); err != nil {
					break
				} else if !found {
					t.Errorf("client %d: key %s vanished", cl, key)
					break
				}
				okGets.Add(1)
				if first {
					first = false
					started.Done()
				}
			}
			if first {
				started.Done()
			}
		}(cl)
	}

	// Close mid-burst, from several goroutines at once: the listener must
	// close exactly once and every in-flight request must still be answered.
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let the burst build
	var closers sync.WaitGroup
	for i := 0; i < 3; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			srv.Close()
		}()
	}
	closers.Wait()
	wg.Wait()
	srv.Close() // idempotent after the fact

	if conn, err := net.Dial("tcp", srv.Addr()); err == nil {
		conn.Close()
		t.Fatal("Dial succeeded after Close — listener still open")
	}

	reg := srv.Registry()
	counted := func(op string) uint64 {
		return reg.Counter("serve_requests_total", monitor.Label{Key: "op", Value: op}).Value()
	}
	if got, want := counted("put"), okPuts.Load(); got != want {
		t.Fatalf("serve_requests_total{op=put} = %d, clients received %d put responses", got, want)
	}
	if got, want := counted("get"), okGets.Load(); got != want {
		t.Fatalf("serve_requests_total{op=get} = %d, clients received %d get responses", got, want)
	}
	if okPuts.Load() == 0 || okGets.Load() == 0 {
		t.Fatal("shutdown raced the load burst: no requests completed")
	}

	// The final Advance folded the shards' state, so the per-shard gauges
	// agree with the flushed-response counters.
	var puts, gets float64
	for i := 0; i < 4; i++ {
		labels := "\x00" + fmt.Sprintf(`{shard="%d"}`, i)
		puts += reg.Get("serve_puts" + labels)
		gets += reg.Get("serve_gets" + labels)
	}
	if puts != float64(okPuts.Load()) {
		t.Fatalf("final gauges fold %v puts, counters say %d", puts, okPuts.Load())
	}
	if gets != float64(okGets.Load()) {
		t.Fatalf("final gauges fold %v gets, counters say %d", gets, okGets.Load())
	}

	// Latency histograms observed exactly the flushed responses.
	putLat := reg.Histogram("serve_request_latency_ns", nil, monitor.Label{Key: "op", Value: "put"})
	if putLat.Count() != okPuts.Load() {
		t.Fatalf("put latency histogram holds %d observations, want %d", putLat.Count(), okPuts.Load())
	}
}

// TestServeCloseBeforeServe: closing a server that never accepted is clean.
func TestServeCloseBeforeServe(t *testing.T) {
	srv, err := NewServer(Config{Shards: 2, Lines: 256})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	if srv.Addr() != "" {
		t.Fatalf("unbound server has address %q", srv.Addr())
	}
}

package main

import (
	"testing"

	"dewrite/internal/monitor"
)

// TestUnknownOpIsCounted is the regression test for the books leak the
// booksbalance analyzer found: a frame with an opcode the protocol doesn't
// know gets a flushed StatusError response, so it must land in
// serve_requests_total — under op="unknown" — or client-received responses
// drift away from requests_total + shed_total.
func TestUnknownOpIsCounted(t *testing.T) {
	srv, err := NewServer(Config{Shards: 2, Lines: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := dial(srv.Addr())
	defer c.Close()

	// One known op to prove the per-op books still work, then two bogus
	// opcodes on the same connection.
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const bogusOp = 9
	for i := 0; i < 2; i++ {
		status, val, err := c.try(bogusOp, "k", nil)
		if err != nil {
			t.Fatalf("round-tripping unknown op: %v", err)
		}
		if status != StatusError {
			t.Fatalf("unknown op answered status %d, want StatusError", status)
		}
		if string(val) != "unknown op" {
			t.Fatalf("unknown op answered %q", val)
		}
	}

	// The client received 3 responses (1 put + 2 errors): the books must
	// balance including the unknown bucket.
	checkBooks(t, srv, 3)
	reg := srv.Registry()
	unknown := reg.Counter("serve_requests_total",
		monitor.Label{Key: "op", Value: "unknown"}).Value()
	if unknown != 2 {
		t.Fatalf("serve_requests_total{op=%q} = %d, want 2", "unknown", unknown)
	}
	errs := reg.Counter("serve_errors_total",
		monitor.Label{Key: "op", Value: "unknown"},
		monitor.Label{Key: "cause", Value: "unknown_op"})
	settle(func() bool { return errs.Value() == 2 })
	if got := errs.Value(); got != 2 {
		t.Fatalf("serve_errors_total{op=unknown,cause=unknown_op} = %d, want 2", got)
	}
}

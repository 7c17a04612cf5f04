package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"dewrite/internal/rng"
)

// RetryClient is the client of the framed protocol: it carries a
// per-request deadline on the wire, reconnects after transport failures, and
// retries retryable verdicts (BUSY, DEADLINE, broken connections) with
// capped exponential backoff and seeded full jitter. The seed makes a load
// run's retry schedule reproducible, which the chaos soak relies on: the
// same seed replays the same backoff decisions against the same fault plan.
//
// A RetryClient is single-goroutine; run one per connection.
type RetryClient struct {
	opts  RetryOptions
	src   *rng.Source
	conn  net.Conn
	rw    *bufio.ReadWriter
	stats RetryStats
}

// RetryOptions configures a RetryClient.
type RetryOptions struct {
	// Addr is the dewrite-serve TCP address.
	Addr string
	// Deadline is the per-request budget, carried on the wire (rounded up to
	// a millisecond) and applied to the connection's read/write deadlines.
	// Zero disables both.
	Deadline time.Duration
	// MaxAttempts bounds tries per request (first try included); <= 0
	// defaults to 8.
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay, doubling per attempt;
	// <= 0 defaults to 2ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling; <= 0 defaults to 250ms.
	MaxBackoff time.Duration
	// Seed drives the jitter draws.
	Seed uint64
}

// RetryStats counts one client's outcomes. Received is the books-balance
// side: every response frame read off the wire, whatever its status.
type RetryStats struct {
	Received        uint64 // response frames read (OK+NotFound+Busy+Deadline+ErrResponses)
	OK              uint64
	NotFound        uint64
	Busy            uint64 // StatusBusy verdicts received (each is one retry trigger)
	Deadline        uint64 // StatusDeadline verdicts received
	ErrResponses    uint64 // StatusError responses (not retried)
	TransportErrors uint64 // dial/write/read failures
	Reconnects      uint64 // dials after the first
	Retries         uint64 // sleeps taken between attempts
	GiveUps         uint64 // requests that exhausted MaxAttempts
}

// NewRetryClient builds a client; the first dial is lazy, so construction
// never fails.
func NewRetryClient(opts RetryOptions) *RetryClient {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 8
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 2 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 250 * time.Millisecond
	}
	return &RetryClient{opts: opts, src: rng.New(opts.Seed)}
}

// Stats returns a copy of the client's counters.
func (c *RetryClient) Stats() RetryStats { return c.stats }

// Close tears down the connection if one is up.
func (c *RetryClient) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.rw = nil
	return err
}

// ensureConn dials if no connection is live.
func (c *RetryClient) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.Dial("tcp", c.opts.Addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.rw = bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	return nil
}

// dropConn discards a connection whose stream state is no longer trustworthy
// (any transport error mid-frame desynchronizes the framing).
func (c *RetryClient) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.rw = nil
	}
}

// backoff sleeps before retry attempt n (0-based): capped exponential with
// full jitter in [d/2, d], drawn from the seeded source.
func (c *RetryClient) backoff(n int) {
	d := c.opts.BaseBackoff << uint(n)
	if d > c.opts.MaxBackoff || d <= 0 {
		d = c.opts.MaxBackoff
	}
	half := uint64(d) / 2
	c.stats.Retries++
	time.Sleep(time.Duration(half + c.src.Uint64n(half+1)))
}

// deadlineMs renders the configured budget for the wire (0 = none).
func (c *RetryClient) deadlineMs() uint16 {
	if c.opts.Deadline <= 0 {
		return 0
	}
	ms := (c.opts.Deadline + time.Millisecond - 1) / time.Millisecond
	if ms > 0xFFFF {
		ms = 0xFFFF
	}
	return uint16(ms)
}

// try performs one attempt: dial if needed, frame, flush, read the response.
func (c *RetryClient) try(op byte, key string, val []byte) (byte, []byte, error) {
	if err := c.ensureConn(); err != nil {
		return 0, nil, err
	}
	if c.opts.Deadline > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opts.Deadline))
	}
	if err := writeRequest(c.rw, op, key, val, c.deadlineMs()); err != nil {
		return 0, nil, err
	}
	if err := c.rw.Flush(); err != nil {
		return 0, nil, err
	}
	return readResponse(c.rw)
}

// roundTrip runs one request through the retry loop, returning the first
// non-retryable response. BUSY and DEADLINE are retryable by protocol
// contract; transport errors retry on a fresh connection.
func (c *RetryClient) roundTrip(op byte, key string, val []byte) (byte, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.backoff(attempt - 1)
			if c.conn == nil {
				c.stats.Reconnects++
			}
		}
		status, resp, err := c.try(op, key, val)
		if err != nil {
			c.stats.TransportErrors++
			c.dropConn()
			lastErr = err
			continue
		}
		c.stats.Received++
		switch status {
		case StatusBusy:
			c.stats.Busy++
			lastErr = fmt.Errorf("%s %q: busy", opName(op), key)
			continue
		case StatusDeadline:
			c.stats.Deadline++
			lastErr = fmt.Errorf("%s %q: deadline expired server-side", opName(op), key)
			continue
		}
		return status, resp, nil
	}
	c.stats.GiveUps++
	return 0, nil, fmt.Errorf("%s %q: giving up after %d attempts: %w",
		opName(op), key, c.opts.MaxAttempts, lastErr)
}

// Put stores val under key, retrying until accepted or attempts exhaust.
func (c *RetryClient) Put(key string, val []byte) error {
	status, _, err := c.roundTrip(OpPut, key, val)
	if err != nil {
		return err
	}
	switch status {
	case StatusOK:
		c.stats.OK++
		return nil
	case StatusError:
		c.stats.ErrResponses++
		return fmt.Errorf("put %q: %s", key, statusName(status))
	default:
		return fmt.Errorf("put %q: unexpected %s", key, statusName(status))
	}
}

// Get returns the value under key; found is false on NotFound.
func (c *RetryClient) Get(key string) (val []byte, found bool, err error) {
	status, resp, err := c.roundTrip(OpGet, key, nil)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case StatusOK:
		c.stats.OK++
		return resp, true, nil
	case StatusNotFound:
		c.stats.NotFound++
		return nil, false, nil
	case StatusError:
		c.stats.ErrResponses++
		return nil, false, fmt.Errorf("get %q: %s", key, statusName(status))
	default:
		return nil, false, fmt.Errorf("get %q: unexpected %s", key, statusName(status))
	}
}

// ServerStats returns the server's metric snapshot as JSON (the STATS op).
func (c *RetryClient) ServerStats() ([]byte, error) {
	status, resp, err := c.roundTrip(OpStats, "", nil)
	if err != nil {
		return nil, err
	}
	switch status {
	case StatusOK:
		c.stats.OK++
		return resp, nil
	case StatusError:
		c.stats.ErrResponses++
		return nil, fmt.Errorf("stats: %s", statusName(status))
	default:
		return nil, fmt.Errorf("stats: unexpected %s", statusName(status))
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dewrite/internal/chaos"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/hashes"
	"dewrite/internal/monitor"
	"dewrite/internal/shard"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// Server is the long-running sharded secure-NVM key-value service: the
// line address space is partitioned across shards, each driving its own
// DeWrite controller (dedup tables, metadata caches, bank queues, wear
// state) in simulated time, with the cross-shard fingerprint directory
// shared between them.
//
// Concurrency follows the simulator's shard contract: controllers are
// single-threaded, so a shard serves one request at a time, on the
// connection goroutine that read it, under the shard's lock. The
// directory's pending side is safe for concurrent publishes, and its frozen
// side is only advanced under the epoch write-lock, which every request
// holds read-side while it runs. The lock order is shard lock, then epoch
// read-lock, so a request waiting for its shard never holds the barrier
// open. Advancing is therefore a brief stop-the-world barrier, exactly the
// simulator's epoch boundary transplanted to wall-clock time.
//
// The ops surface is RED-complete: request/error counters and wall-clock
// latency histograms per op, per-shard queue and occupancy gauges, barrier
// stall accounting, a slowest-recent-requests ring (/debug/slow), and
// structured JSON logs whose request IDs match the ring's entries. See
// ops.go for the full metric table.
type Server struct {
	cfg      Config
	shardCfg config.Config // per-shard controller config (bank slice applied)
	router   shard.Router
	dir      *shard.Directory
	shards   []*shardWorker
	reg      *monitor.Registry
	m        *serveMetrics
	slow     *slowRing
	log      *slog.Logger // nil disables logging entirely
	plan     *chaos.Plan  // nil disables fault injection entirely

	// epochMu is the epoch barrier: requests run under RLock, taken after
	// their shard's lock; the directory advance runs under Lock and never
	// takes a shard lock.
	epochMu sync.RWMutex
	// highWater/lowWater are the admission watermarks in requests waiting
	// for a shard's lock: a shard whose waiting count reaches highWater
	// enters drain mode and sheds until it falls back to lowWater.
	highWater, lowWater int

	// ready flips once generation zero has published (the first Advance);
	// /readyz answers 503 until then, and again once draining starts.
	ready atomic.Bool
	// draining flips at the start of graceful shutdown: /readyz returns to
	// 503 so load balancers stop routing here while in-flight requests are
	// still being answered.
	draining atomic.Bool
	// reqID assigns frame IDs: every request read off any connection gets
	// the next ID, correlating /debug/slow entries with log lines.
	reqID  atomic.Uint64
	connID atomic.Uint64

	// Snapshot state, touched only under the epoch write-lock.
	nextSnapGen uint64 // generation number the next snapshot will carry
	sinceSnap   uint64 // advances since the last snapshot attempt

	recoverOnce sync.Once
	recoverErr  error

	ln      net.Listener
	quit    chan struct{}
	conns   sync.WaitGroup
	connMu  sync.Mutex
	open    map[net.Conn]struct{}
	closing sync.Once
}

// Config sizes the server.
type Config struct {
	// Shards is the number of controller shards, each serving one request
	// at a time.
	Shards int
	// Lines is the global number of data lines, striped across shards.
	Lines uint64
	// AdvanceEvery advances the cross-shard directory after this many
	// served requests (approximately); <= 0 defaults to 1024.
	AdvanceEvery uint64
	// Logger, when non-nil, receives structured events (connection
	// open/close, epoch advances, slow requests, shutdown). nil disables
	// logging with zero per-request cost.
	Logger *slog.Logger
	// SlowK is the capacity of the slow-request ring (/debug/slow);
	// <= 0 defaults to 32.
	SlowK int

	// QueueDepth bounds the requests waiting for each shard's lock, not
	// counting the one running; <= 0 defaults to 64. A request that finds
	// the bound reached sheds with StatusBusy instead of waiting.
	QueueDepth int
	// ShedHighWater and ShedLowWater are fractions of QueueDepth: a shard
	// whose waiting count reaches the high watermark enters drain mode (new
	// requests shed with BUSY) until it falls to the low watermark.
	// Zero values default to 0.9 and 0.5.
	ShedHighWater, ShedLowWater float64
	// DefaultDeadline is applied to requests whose frame carries no
	// deadline; 0 means such requests never expire server-side.
	DefaultDeadline time.Duration

	// SnapshotDir, when non-empty, enables crash-safe state: periodic
	// directory-generation snapshots of every shard's controller (plus the
	// server-level key directory), and recovery from the latest valid
	// generation on boot.
	SnapshotDir string
	// SnapshotEvery is the number of epoch advances between snapshots;
	// 0 defaults to 8.
	SnapshotEvery uint64
	// SnapshotKeep is how many generations Prune retains; 0 defaults to 3.
	SnapshotKeep int

	// Chaos, when non-nil, arms the seeded deterministic fault plan:
	// connection resets, slow-loris pacing, shard stalls, and mid-snapshot
	// aborts. nil disables injection entirely.
	Chaos *chaos.Plan
}

// shardReq is one routed PUT or GET. key and val alias the connection's
// frame buffer.
type shardReq struct {
	op       byte
	key, val []byte
	// deadline is the absolute expiry instant (zero = none): a request that
	// gets its shard's lock only after this instant is answered
	// StatusDeadline without touching the controller.
	deadline time.Time
}

type shardResp struct {
	status byte
	val    []byte // a GET's value aliases the connection's line buffer
	cause  string // non-empty on StatusError: the serve_errors_total cause
}

// shardWorker is one shard: its controller, its key→line directory, and its
// simulated clock. Everything here but waiting and drainMode is touched only
// by the request holding mu and the epoch read-lock, or under the epoch
// write-lock.
type shardWorker struct {
	id   int
	ctrl *core.Controller

	// mu serializes the shard's requests; it is taken before the epoch
	// read-lock.
	mu sync.Mutex
	// waiting counts admitted requests that do not yet hold mu: the shard's
	// queue depth, which admission bounds.
	waiting atomic.Int64

	slots map[string]uint64
	next  uint64
	cap   uint64
	now   units.Time

	puts, gets, misses, full uint64
	crossDup                 uint64
	served                   uint64 // since last advance
	total                    uint64 // lifetime requests run (chaos stall ordinal)

	// drainMode is the shard's watermark state: set when the waiting count
	// reaches the high watermark, cleared at the low watermark. Written by
	// connection goroutines at admission; the count moves while it is read,
	// so transitions are heuristics, not invariants.
	drainMode atomic.Bool
}

// connBufs is a connection's scratch, reused for every request it reads.
type connBufs struct {
	// frame holds the request being decoded (see readRequest).
	frame [frameCap]byte
	// line is the NVM line a PUT writes or a GET reads; a GET's response
	// value aliases it. hashes.CRC32 and the controller let their line
	// arguments escape, so a stack line would be moved to the heap per
	// request.
	line [config.LineSize]byte
}

// NewServer builds the sharded service; call Serve to accept connections and
// Close to tear everything down. The server is not ready (in the /readyz
// sense) until Serve publishes generation zero.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dewrite-serve: %d shards", cfg.Shards)
	}
	if cfg.Lines == 0 {
		cfg.Lines = 1 << 16
	}
	if cfg.AdvanceEvery == 0 {
		cfg.AdvanceEvery = 1024
	}
	if cfg.SlowK <= 0 {
		cfg.SlowK = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ShedHighWater <= 0 || cfg.ShedHighWater > 1 {
		cfg.ShedHighWater = 0.9
	}
	if cfg.ShedLowWater <= 0 || cfg.ShedLowWater >= cfg.ShedHighWater {
		cfg.ShedLowWater = cfg.ShedHighWater / 2
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 8
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = 3
	}
	s := &Server{
		cfg:         cfg,
		router:      shard.NewRouter(cfg.Shards),
		dir:         shard.NewDirectory(cfg.Shards),
		reg:         monitor.NewRegistry(),
		slow:        newSlowRing(cfg.SlowK, slowWindow),
		log:         cfg.Logger,
		plan:        cfg.Chaos,
		quit:        make(chan struct{}),
		open:        make(map[net.Conn]struct{}),
		nextSnapGen: 1,
	}
	s.m = newServeMetrics(s.reg, cfg.Shards)
	s.reg.Set("serve_ready", 0)
	s.highWater = int(cfg.ShedHighWater * float64(cfg.QueueDepth))
	if s.highWater < 1 {
		s.highWater = 1
	}
	s.lowWater = int(cfg.ShedLowWater * float64(cfg.QueueDepth))
	s.shardCfg = shard.BankSlice(config.Default(), cfg.Shards)

	for i := 0; i < cfg.Shards; i++ {
		w := &shardWorker{
			id:    i,
			slots: make(map[string]uint64),
			cap:   s.router.LinesFor(i, cfg.Lines),
		}
		if w.cap >= 1<<32 {
			return nil, fmt.Errorf("dewrite-serve: %d lines give shard %d %d, above the dedup tables' 2^32-1", cfg.Lines, i, w.cap)
		}
		w.ctrl = core.New(core.Options{DataLines: w.cap, Config: s.shardCfg})
		w.ctrl.Tables().SetPublish(s.dir.Publisher(i))
		s.shards = append(s.shards, w)
	}
	return s, nil
}

// Ready is the /readyz probe: true once generation zero has published
// (which happens only after recovery completes — Serve runs Recover first),
// and false again the moment graceful shutdown starts draining, so load
// balancers stop routing here while in-flight requests are still answered.
func (s *Server) Ready() bool { return s != nil && s.ready.Load() && !s.draining.Load() }

// logEvent emits one structured log record; a nil logger costs one branch.
func (s *Server) logEvent(level slog.Level, msg string, args ...any) {
	if s.log == nil {
		return
	}
	s.log.Log(context.Background(), level, msg, args...)
}

// shardOf routes a key: shards own key-hash classes, the serving analog of
// the simulator's address striping. key is the request's frame buffer, which
// outlives the call, so the escaping CRC-32 argument costs no allocation.
func (s *Server) shardOf(key []byte) int {
	return int(hashes.CRC32(key) % uint32(len(s.shards)))
}

// admit applies admission control for one routed request: watermark-based
// drain mode plus a hard bound of QueueDepth requests waiting for the shard's
// lock. It returns a shed cause (< 0 when admitted, and then the caller must
// run the request). The count moves while it is read, so the watermark
// transitions are heuristics; the bound is the invariant.
func (s *Server) admit(w *shardWorker) int {
	depth := int(w.waiting.Load())
	if w.drainMode.Load() {
		if depth > s.lowWater {
			return shedDrain
		}
		w.drainMode.Store(false)
		s.m.drainMode[w.id].Set(0)
	} else if depth >= s.highWater {
		w.drainMode.Store(true)
		s.m.drainMode[w.id].Set(1)
		return shedWatermark
	}
	n := w.waiting.Add(1)
	if n > int64(s.cfg.QueueDepth) {
		w.waiting.Add(-1)
		return shedQueueFull
	}
	s.m.queueDepth[w.id].Set(float64(n))
	return -1
}

// run executes one admitted request on the calling connection goroutine:
// it takes the shard's lock, then the epoch read-lock. The time spent
// blocked acquiring the read lock is exactly the time the request stood at
// a barrier waiting for an Advance to finish, so it lands in the shard's
// serve_barrier_stall_ns_total counter; the wait for the shard lock is
// queueing, not barrier pressure. The request that finds the shard's
// advance interval used up runs the Advance, after releasing both locks.
func (s *Server) run(w *shardWorker, req shardReq, line *[config.LineSize]byte) shardResp {
	w.mu.Lock()
	w.waiting.Add(-1)
	t0 := time.Now()
	s.epochMu.RLock()
	if wait := time.Since(t0); wait > 0 {
		s.m.stalls[w.id].Add(uint64(wait.Nanoseconds()))
	}
	w.total++
	if ns := s.plan.ShardStallNs(w.id, w.total); ns > 0 {
		// Injected under both locks so a stall exercises exactly the path a
		// slow controller would: barrier pressure on every other shard and
		// queue growth on this one.
		s.m.chaosStalls.Inc()
		time.Sleep(time.Duration(ns))
	}
	var resp shardResp
	if !req.deadline.IsZero() && time.Now().After(req.deadline) {
		// Expired in the queue: answer the typed retryable verdict without
		// touching the controller, so a backlogged shard fails fast instead
		// of doing work nobody is waiting for.
		resp = shardResp{status: StatusDeadline}
	} else {
		resp = w.handle(s, req, line)
	}
	advance := w.served >= s.cfg.AdvanceEvery
	s.epochMu.RUnlock()
	w.mu.Unlock()
	if advance {
		s.Advance()
	}
	return resp
}

// handle executes one request against the shard's controller, through the
// connection's line buffer. Caller holds the shard lock and the epoch
// read-lock.
func (w *shardWorker) handle(s *Server, req shardReq, line *[config.LineSize]byte) shardResp {
	w.served++
	switch req.op {
	case OpPut:
		slot, ok := w.slots[string(req.key)]
		if !ok {
			if w.next >= w.cap {
				w.full++
				return shardResp{status: StatusError, val: []byte("shard full"), cause: "shard_full"}
			}
			slot = w.next
			w.next++
			w.slots[string(req.key)] = slot
		}
		// Cleared before each fill: the tail past the value must read as
		// zero, as a fresh line would, or stale bytes from an earlier request
		// would change the line and its dedup outcome.
		clear(line[:])
		binary.BigEndian.PutUint16(line[:2], uint16(len(req.val)))
		copy(line[2:], req.val)
		if s.dir.HeldElsewhere(w.ctrl.Fingerprint(line[:]), w.id) {
			w.crossDup++
		}
		w.now = w.ctrl.Write(w.now, slot, line[:])
		w.puts++
		return shardResp{status: StatusOK}
	case OpGet:
		slot, ok := w.slots[string(req.key)]
		if !ok {
			w.misses++
			return shardResp{status: StatusNotFound}
		}
		w.now = w.ctrl.ReadInto(w.now, slot, line[:])
		w.gets++
		n := int(binary.BigEndian.Uint16(line[:2]))
		if n > ValueCap {
			return shardResp{status: StatusError, val: []byte("corrupt length prefix"), cause: "corrupt_value"}
		}
		return shardResp{status: StatusOK, val: line[2 : 2+n]}
	default:
		return shardResp{status: StatusError, val: []byte("unknown op"), cause: "unknown_op"}
	}
}

// Advance runs one epoch barrier: waits for every running request to
// finish, folds the directory's pending deltas into the next frozen
// generation, and republishes the per-shard gauges. Requests resume as soon
// as the lock drops. It takes no shard lock: a request waiting for its
// shard holds no read lock, so it cannot hold the barrier open. The first
// Advance publishes generation zero and flips the readiness probe.
func (s *Server) Advance() {
	t0 := time.Now()
	s.epochMu.Lock()
	s.dir.Advance()
	for _, w := range s.shards {
		w.served = 0
		s.publishShard(w)
	}
	for i, n := range s.dir.EpochPublishes() {
		s.reg.SetLabeled("serve_directory_publishes",
			[]monitor.Label{{Key: "shard", Value: strconv.Itoa(i)}}, float64(n))
	}
	st := s.dir.Snapshot()
	s.reg.Set("serve_directory_fingerprints", float64(st.Fingerprints))
	s.reg.Set("serve_directory_locations", float64(st.Locations))
	s.reg.Set("serve_directory_shared", float64(st.Shared))
	s.reg.Set("serve_directory_advances", float64(st.Advances))
	if s.cfg.SnapshotDir != "" {
		s.sinceSnap++
		if s.sinceSnap >= s.cfg.SnapshotEvery {
			s.sinceSnap = 0
			// No request holds the read lock, so every shard's state is
			// stable — the same invariant publishShard relies on.
			//dewrite:allow lockdiscipline full-state snapshots serialize at the barrier by design: no request holds the read lock; delta snapshots, parked in ROADMAP.md, would move this off the write lock
			s.snapshotLocked(s.plan)
		}
	}
	s.epochMu.Unlock()

	held := time.Since(t0)
	s.m.advances.Inc()
	s.m.advanceNs.Add(uint64(held.Nanoseconds()))
	if s.ready.CompareAndSwap(false, true) {
		s.reg.Set("serve_ready", 1)
	}
	s.logEvent(slog.LevelInfo, "epoch_advance",
		"generation", st.Advances,
		"fingerprints", st.Fingerprints,
		"held_ns", held.Nanoseconds())
}

// publishShard refreshes one shard's gauges. Caller holds the epoch
// write-lock (no request is running, so the shard's state is stable).
func (s *Server) publishShard(w *shardWorker) {
	labels := []monitor.Label{{Key: "shard", Value: strconv.Itoa(w.id)}}
	s.reg.SetLabeled("serve_puts", labels, float64(w.puts))
	s.reg.SetLabeled("serve_gets", labels, float64(w.gets))
	s.reg.SetLabeled("serve_misses", labels, float64(w.misses))
	s.reg.SetLabeled("serve_cross_shard_dup_hits", labels, float64(w.crossDup))
	s.reg.SetLabeled("serve_keys", labels, float64(len(w.slots)))
	s.reg.SetLabeled("serve_occupancy", labels, float64(w.next)/float64(w.cap))

	var e timeline.Epoch
	w.ctrl.SampleEpoch(&e, w.now)
	s.reg.PublishEpoch("serve_shard_"+strconv.Itoa(w.id), &e)
}

// Registry exposes the metric registry (for the ops HTTP server and tests).
func (s *Server) Registry() *monitor.Registry { return s.reg }

// Serve recovers persisted state (when snapshots are configured), publishes
// generation zero (flipping /readyz to ready), and accepts client
// connections on addr until Close. It returns once the listener is bound;
// accepting runs in the background.
//
// Ordering matters for the readiness contract: recovery and its scrub run
// to completion before the first Advance, so /readyz keeps answering 503
// until the restored state has been verified.
func (s *Server) Serve(addr string) error {
	if err := s.Recover(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	// Publish generation zero so the ops surface is populated from the first
	// scrape; until here /readyz answers 503.
	s.Advance()
	s.conns.Add(1)
	go func() {
		defer s.conns.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-s.quit:
					return
				default:
				}
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
			s.conns.Add(1)
			go func() {
				defer s.conns.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// track registers a live client connection so shutdown can interrupt its
// blocked read; it reports false when the server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.quit:
		return false
	default:
	}
	s.open[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.open, conn)
	s.connMu.Unlock()
}

// closedForShutdown reports whether a read error is the expected result of
// connection teardown rather than a client protocol violation.
func closedForShutdown(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// serveConn handles one client stream: a sequence of framed requests, each
// answered in order. Requests route to shards by key hash and run on this
// goroutine under the shard's lock, so each stream sees its own operations
// in program order. The connection decodes into one frame buffer and answers
// from one line buffer, so a PUT to a known key and a GET allocate nothing.
//
// Shutdown contract: once a request frame has been read it is always
// processed and its response always written — quit is only honored between
// frames, so in-flight requests are never dropped. Counters count flushed
// responses, which is what makes the shutdown test's books balance.
func (s *Server) serveConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()
	cid := s.connID.Add(1)
	s.m.connsTotal.Inc()
	s.reg.Add("serve_connections_open", 1)
	defer s.reg.Add("serve_connections_open", -1)
	s.logEvent(slog.LevelInfo, "conn_open", "conn", cid, "remote", conn.RemoteAddr().String())
	var served uint64
	defer func() {
		s.logEvent(slog.LevelInfo, "conn_close", "conn", cid, "served", served)
	}()

	// Chaos: a doomed connection is torn down after a planned number of
	// fully-flushed frames. The reset always lands between frames — every
	// counted response has reached the kernel send buffer and the graceful
	// close delivers it (FIN, not RST) — so injected resets never break the
	// books-balance invariant, they only exercise client reconnect paths.
	resetAfter, doomed := s.plan.ConnReset(cid)
	slowNs := s.plan.ReadDelayNs(cid)

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	bufs := new(connBufs)
	for {
		if ns := slowNs; ns > 0 {
			// Slow-loris pacing: the injected delay sits where a slow client
			// network would, between a flushed response and the next frame.
			s.m.chaosSlowReads.Inc()
			time.Sleep(time.Duration(ns))
		}
		op, key, val, deadlineMs, err := readRequest(br, bufs.frame[:])
		if err != nil {
			if !closedForShutdown(err) {
				s.errorCause(op, "bad_frame")
				s.logEvent(slog.LevelWarn, "bad_frame", "conn", cid, "err", err.Error())
				_ = writeResponse(bw, StatusError, []byte(err.Error()))
				_ = bw.Flush()
			}
			return
		}
		rid := s.reqID.Add(1)
		start := time.Now()
		var deadline time.Time
		if deadlineMs > 0 {
			deadline = start.Add(time.Duration(deadlineMs) * time.Millisecond)
		} else if s.cfg.DefaultDeadline > 0 {
			deadline = start.Add(s.cfg.DefaultDeadline)
		}
		shardID := -1
		var resp shardResp
		shed := -1
		switch op {
		case OpStats:
			snap, err := json.Marshal(s.reg.Snapshot())
			if err != nil {
				resp = shardResp{status: StatusError, val: []byte(err.Error()), cause: "encode"}
			} else {
				resp = shardResp{status: StatusOK, val: snap}
			}
		case OpPut, OpGet:
			shardID = s.shardOf(key)
			w := s.shards[shardID]
			if shed = s.admit(w); shed >= 0 {
				resp = shardResp{status: StatusBusy}
			} else {
				resp = s.run(w, shardReq{op: op, key: key, val: val, deadline: deadline}, &bufs.line)
			}
		default:
			resp = shardResp{status: StatusError, val: []byte("unknown op"), cause: "unknown_op"}
		}
		if err := writeResponse(bw, resp.status, resp.val); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		served++
		lat := time.Since(start)
		if resp.status == StatusDeadline {
			shed = shedDeadline
		}
		if shed >= 0 && shardID >= 0 {
			s.m.sheds[shardID][shed].Inc()
		} else {
			s.observe(rid, op, shardID, lat, resp)
		}

		if doomed && served >= resetAfter {
			s.m.chaosResets.Inc()
			s.logEvent(slog.LevelDebug, "chaos_conn_reset", "conn", cid, "served", served)
			return
		}
		// Between frames is the only place quit is honored: the response
		// above is flushed, so closing here drops nothing.
		select {
		case <-s.quit:
			return
		default:
		}
	}
}

// observe records one flushed response in the RED instruments, the slow
// ring, and (when slow) the structured log.
func (s *Server) observe(rid uint64, op byte, shardID int, lat time.Duration, resp shardResp) {
	idx := int(op) - 1
	if idx < 0 || idx >= len(s.m.latency) {
		// Unknown op: the error response was still flushed to the client, so
		// the books must count it — serve_requests_total{op="unknown"} — but
		// an op the protocol doesn't know has no latency family.
		s.m.requests[len(s.m.requests)-1].Inc()
	} else {
		s.m.requests[idx].Inc()
		s.m.latency[idx].Observe(uint64(lat.Nanoseconds()))
	}
	if resp.status == StatusError && resp.cause != "" {
		s.errorCause(op, resp.cause)
	}
	if s.slow.record(slowEntry{ID: rid, Op: opName(op), Shard: shardID, LatencyNs: lat.Nanoseconds()}) {
		s.m.slowTotal.Inc()
		s.logEvent(slog.LevelDebug, "slow_request",
			"req", rid, "op", opName(op), "shard", shardID, "latency_ns", lat.Nanoseconds())
	}
}

// Close stops accepting, lets every in-flight request finish and flush its
// response, tears the client connections down, and runs one final advance
// so the gauges reflect the end state. No request can run once the
// connections are gone. The listener is closed exactly once; extra Close
// calls (including concurrent ones) wait on nothing and change nothing.
func (s *Server) Close() {
	s.closing.Do(func() {
		// Flip the readiness probe to 503 before anything is torn down, so
		// load balancers stop routing here while the drain is in progress.
		s.draining.Store(true)
		s.reg.Set("serve_draining", 1)
		s.logEvent(slog.LevelInfo, "shutdown_begin", "conns_open", func() int {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return len(s.open)
		}())
		close(s.quit)
		if s.ln != nil {
			s.ln.Close()
		}
		// Interrupt reads blocked waiting for a next frame: connection
		// goroutines check quit after each flushed response, and an expired
		// read deadline unblocks the ones sitting idle in readRequest. A
		// frame already read is still fully served (see serveConn).
		s.connMu.Lock()
		for conn := range s.open {
			_ = conn.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.conns.Wait()
		s.Advance()
		if s.cfg.SnapshotDir != "" {
			// The clean-shutdown snapshot is never chaos-aborted: it is the
			// reference state the chaos soak compares a crash recovery
			// against.
			s.epochMu.Lock()
			//dewrite:allow lockdiscipline the clean-shutdown snapshot runs at the barrier by design: every connection has closed and no reader is stalled
			s.snapshotLocked(nil)
			s.epochMu.Unlock()
		}
		s.logEvent(slog.LevelInfo, "shutdown_complete", "requests", s.reqID.Load())
	})
}

// Abort is kill -9 in-process: it tears the listener and every connection
// down without draining, without a final advance, and without a clean
// snapshot — whatever generation directories exist on disk are exactly what
// a power loss would have left. Tests use it to exercise the recovery path;
// production binaries only ever Close.
func (s *Server) Abort() {
	s.closing.Do(func() {
		close(s.quit)
		if s.ln != nil {
			s.ln.Close()
		}
		s.connMu.Lock()
		for conn := range s.open {
			_ = conn.Close()
		}
		s.connMu.Unlock()
		s.conns.Wait()
	})
}

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/hashes"
	"dewrite/internal/rng"
	"dewrite/internal/shard"
	"dewrite/internal/sim"
	"dewrite/internal/trace"
	"dewrite/internal/workload"
)

// serve-mixed: the operators' workload. Each rep starts a fresh dewrite-serve
// (two shards, loopback, ephemeral ports), PUTs every key once, then runs a
// closed loop for the rep's share of the run's measuring time: two
// connections, no think time, 60 % PUT / 40 % GET, keys uniform over each
// connection's own 12,000. Half the PUT values come from a seeded pool of 256
// (duplicates the controller can eliminate), half are fresh random bytes.
// The per-request cost is mostly network, framing, mailbox handoff and the
// epoch barrier around the controller, so a crypto or dedup gain should barely
// move it and a serving gain should show only here.
const (
	serveShards   = 2
	serveConns    = 2      // closed-loop clients: one per CPU of a 2-CPU host
	serveKeys     = 12_000 // per connection; 24 k in all, below the daemon's 65,536 lines
	serveLines    = 1 << 16
	serveValueLen = 62
	servePool     = 256
	servePutFrac  = 0.6
	servePoolFrac = 0.5
	serveReps     = 5 // fresh daemons under load per untraced run
	// serveSetupsPerRep is how many unloaded daemons each untraced rep
	// starts and stops for setup_s, the median of their start-up times.
	serveSetupsPerRep = 4
	replayCap         = 1 << 17 // shard-0 requests replayed in the traced run
	clockTicks        = 100     // unit of /proc/<pid>/stat CPU times (USER_HZ)
	maxResponse       = 1 << 20
)

// The framed protocol of cmd/dewrite-serve/proto.go. The daemon lives in
// package main, so the benchmark mirrors the framing instead of importing it.
const (
	opPut    byte = 1
	opGet    byte = 2
	statusOK byte = 0
)

func runServeMixed(c *runConfig) (*outcome, error) {
	if c.daemon == "" {
		return nil, errors.New("--daemon names no dewrite-serve binary (run.sh passes it)")
	}
	keys := serveKeys
	if c.toy {
		keys = 300
	}
	// The timed phases take 85 % of the measuring time; start-ups and fills
	// take the rest.
	reps, timed := serveReps, c.seconds*17/(20*serveReps)
	if c.trace {
		reps, timed = 1, c.seconds
	}
	o := newOutcome()
	for rep := 0; rep < reps; rep++ {
		if !c.trace {
			if err := serveSetups(c, o); err != nil {
				return nil, err
			}
		}
		r, err := serveRep(c, keys, timed)
		if err != nil {
			return nil, err
		}
		o.record("slowdown", r.slow)
		o.sampleCalibrated("ops_per_s", float64(r.timedReqs)/r.timedWall.Seconds(), r.slow, true)
		o.sample("peak_rss_mb", r.hwmMB)
		for _, st := range r.conns {
			o.attempted += st.sent
			o.failed += st.failed
			if st.firstErr != "" {
				o.problem("%s", st.firstErr)
			}
		}
		if r.received != r.booked {
			o.problem("books: client received %.0f responses, daemon counted %.0f requests + sheds", r.received, r.booked)
		}
		c.logger("  serve-mixed rep: start %v, %d requests in %v", r.setup.Round(time.Millisecond), r.timedReqs, r.timedWall.Round(time.Millisecond))
		if c.trace {
			if err := serveLayers(c, o, r, keys); err != nil {
				return nil, err
			}
		}
	}
	return o, nil
}

// serveLayers sets the traced rep's metrics: the daemon's side of a request
// from its /metrics, the client's phases, and the controller layers over a
// replay of what shard 0 executed.
func serveLayers(c *runConfig, o *outcome, r *serveRun, keys int) error {
	var putUs, getUs []float64
	var encode, decode, total time.Duration
	var logs [][]logEntry
	for _, st := range r.conns {
		putUs = append(putUs, st.putUs...)
		getUs = append(getUs, st.getUs...)
		encode += st.encode
		decode += st.decode
		total += st.total
		logs = append(logs, st.log)
	}
	if err := layerRun(c, o, "", []stream{serveStream(logs)}); err != nil {
		return err
	}

	v := o.values
	m1, m2 := r.afterFill, r.end
	delta := func(name string) float64 { return m2[name] - m1[name] }
	serverMean := func(op string) float64 {
		sum := delta(`dewrite_serve_request_latency_ns_sum{op="` + op + `"}`)
		return ratio(sum, delta(`dewrite_serve_request_latency_ns_count{op="`+op+`"}`)) / 1e3
	}
	v["serve.server_put_share"] = ratio(serverMean("put"), mean(putUs))
	v["serve.server_get_share"] = ratio(serverMean("get"), mean(getUs))
	v["serve.client_encode_share"] = ratio(float64(encode), float64(total))
	v["serve.client_decode_share"] = ratio(float64(decode), float64(total))
	v["serve.advance_share"] = ratio(delta("dewrite_serve_advance_ns_total"), float64(r.timedWall))
	v["serve.advances_per_kreq"] = ratio(delta("dewrite_serve_advances_total"), float64(r.timedReqs)/1e3)
	serverNs := delta(`dewrite_serve_request_latency_ns_sum{op="put"}`) + delta(`dewrite_serve_request_latency_ns_sum{op="get"}`)
	v["serve.barrier_stall_share"] = ratio(sumFamily(m2, "dewrite_serve_barrier_stall_ns_total{")-sumFamily(m1, "dewrite_serve_barrier_stall_ns_total{"), serverNs)
	v["serve.shed_frac"] = ratio(sumFamily(m2, "dewrite_serve_shed_total{")-sumFamily(m1, "dewrite_serve_shed_total{"), float64(r.timedReqs))
	var dups, writes float64
	for s := 0; s < serveShards; s++ {
		dups += m2["dewrite_serve_shard_"+strconv.Itoa(s)+"_dup_eliminated"]
		writes += m2["dewrite_serve_shard_"+strconv.Itoa(s)+"_writes"]
	}
	v["serve.dedup_ratio"] = ratio(dups, writes)

	v["process.cpu_us_per_op"] = ratio(float64(r.cpu)/1e3, float64(r.timedReqs))
	v["client.put_samples"] = float64(len(putUs))
	v["client.get_samples"] = float64(len(getUs))
	v["client.put_p50_us"] = percentile(putUs, 0.50)
	v["client.put_p99_us"] = percentile(putUs, 0.99)
	v["client.get_p50_us"] = percentile(getUs, 0.50)
	v["client.get_p99_us"] = percentile(getUs, 0.99)
	l := newConnLoad(c.seed, 0, keys, servePoolValues(c.seed))
	v["workload.next_ns"] = timeBatches(c.spans, "client.next", generatorCalls, func(int) {
		_, _, val := l.next()
		sinkInt += len(val)
	})
	return nil
}

// serveSetups takes a rep's set-up samples: daemons started until /readyz
// answers and stopped again, with no load.
func serveSetups(c *runConfig, o *outcome) error {
	sampler := startSampler()
	raw := make([]float64, serveSetupsPerRep)
	for i := range raw {
		d, err := startDaemon(c.daemon)
		if err != nil {
			sampler.slowdown() // stops it
			return err
		}
		raw[i] = d.setup.Seconds()
		d.stop()
	}
	slow := sampler.slowdown()
	for _, r := range raw {
		o.sampleCalibrated("setup_s", r, slow, false)
	}
	return nil
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// serveRun is one rep's measurements.
type serveRun struct {
	setup, timedWall, cpu time.Duration
	timedReqs             int64
	hwmMB                 float64
	slow                  float64 // host slowdown over the timed phase (calib.go)
	conns                 []*connStats
	received, booked      float64 // responses the clients read; requests + sheds the daemon counted
	afterFill, end        map[string]float64
}

func serveRep(c *runConfig, keys int, timed time.Duration) (*serveRun, error) {
	d, err := startDaemon(c.daemon)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := &serveRun{setup: d.setup}
	start, err := d.scrape()
	if err != nil {
		return nil, err
	}
	pool := servePoolValues(c.seed)
	repStart := time.Now()
	runs := make([]*connRun, serveConns)
	for i := range runs {
		cl, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer cl.conn.Close()
		runs[i] = &connRun{id: i, cl: cl, load: newConnLoad(c.seed, i, keys, pool), st: &connStats{}, spans: c.spans, traced: c.trace, t0: repStart}
		r.conns = append(r.conns, runs[i].st)
	}

	// Fill: every key once, so each GET of the timed phase has a value to
	// return.
	if err := together(runs, func(cr *connRun) error {
		for k := range cr.load.keys {
			if err := cr.do(opPut, k, cr.load.value(), false); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if r.afterFill, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}

	sampler := startSampler()
	t0 := time.Now()
	deadline := t0.Add(timed)
	err = together(runs, func(cr *connRun) error {
		for time.Now().Before(deadline) {
			op, k, val := cr.load.next()
			if err := cr.do(op, k, val, true); err != nil {
				return err
			}
		}
		return nil
	})
	r.timedWall = time.Since(t0)
	r.slow = sampler.slowdown()
	if err != nil {
		return nil, err
	}
	c.spans.add("serve.timed", 0, t0, t0.Add(r.timedWall))
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	r.cpu = cpu1 - cpu0
	if r.hwmMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	for _, st := range r.conns {
		r.received += float64(st.sent)
		r.timedReqs += int64(len(st.putUs) + len(st.getUs))
	}

	// The daemon counts a response just after flushing it, so the last few
	// may land a moment after the client has read them.
	books := func(m map[string]float64) float64 {
		return sumFamily(m, "dewrite_serve_requests_total{") + sumFamily(m, "dewrite_serve_shed_total{")
	}
	for try := 0; ; try++ {
		if r.end, err = d.scrape(); err != nil {
			return nil, err
		}
		r.booked = books(r.end) - books(start)
		if r.booked == r.received || try == 50 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return r, nil
}

// together runs phase on every connection concurrently and returns their
// errors joined.
func together(runs []*connRun, phase func(*connRun) error) error {
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, cr := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = phase(cr)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// connLoad is one connection's request stream: its own keys, a shadow of
// the last value PUT to each, and the seeded choices.
type connLoad struct {
	keys   []string
	shadow [][]byte
	pool   [][]byte
	rnd    *rng.Source
}

func servePoolValues(seed uint64) [][]byte {
	r := rng.New(seed)
	pool := make([][]byte, servePool)
	for i := range pool {
		pool[i] = make([]byte, serveValueLen)
		r.Fill(pool[i])
	}
	return pool
}

func newConnLoad(seed uint64, conn, keys int, pool [][]byte) *connLoad {
	l := &connLoad{
		keys:   make([]string, keys),
		shadow: make([][]byte, keys),
		pool:   pool,
		rnd:    rng.New(seed ^ uint64(conn+1)*0x9e3779b97f4a7c15),
	}
	for k := range l.keys {
		l.keys[k] = fmt.Sprintf("c%d-k%05d", conn, k)
	}
	return l
}

// value picks a PUT value: a pool value with probability servePoolFrac,
// otherwise fresh random bytes.
func (l *connLoad) value() []byte {
	if l.rnd.Bool(servePoolFrac) {
		return l.pool[l.rnd.Intn(servePool)]
	}
	v := make([]byte, serveValueLen)
	l.rnd.Fill(v)
	return v
}

// next picks the timed phase's next request.
func (l *connLoad) next() (op byte, key int, val []byte) {
	key = l.rnd.Intn(len(l.keys))
	if l.rnd.Bool(servePutFrac) {
		return opPut, key, l.value()
	}
	return opGet, key, nil
}

// connStats is one connection's record of a rep.
type connStats struct {
	sent, failed          int64
	firstErr              string
	putUs, getUs          []float64     // timed-phase latencies
	encode, decode, total time.Duration // traced: encode+flush, decode, whole request
	log                   []logEntry    // traced: completed requests, for the replay
}

// logEntry is one completed request as shard replay input.
type logEntry struct {
	at  time.Duration
	op  byte
	key string
	val []byte
}

type connRun struct {
	id     int
	cl     *client
	load   *connLoad
	st     *connStats
	spans  *spanLog
	traced bool
	t0     time.Time
	n      int64
}

// do sends one request and checks the answer: a PUT must succeed, a GET must
// return the last value PUT to its key.
func (cr *connRun) do(op byte, k int, val []byte, timed bool) error {
	var ph phaseTimes
	t0 := time.Now()
	status, body, err := cr.cl.do(op, cr.load.keys[k], val, &ph)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("connection %d: %w", cr.id, err)
	}
	st := cr.st
	st.sent++
	ok := status == statusOK
	switch {
	case !ok:
		st.fail(fmt.Sprintf("%s %q: status %d", opName(op), cr.load.keys[k], status))
	case op == opPut:
		cr.load.shadow[k] = val
	case !bytes.Equal(body, cr.load.shadow[k]):
		ok = false
		st.fail(fmt.Sprintf("get %q returned a value other than the last put", cr.load.keys[k]))
	}
	if timed {
		lat := float64(t1.Sub(t0)) / 1e3
		if op == opPut {
			st.putUs = append(st.putUs, lat)
		} else {
			st.getUs = append(st.getUs, lat)
		}
	}
	if !cr.traced {
		return nil
	}
	if timed {
		st.encode += ph.flushed.Sub(t0)
		st.decode += t1.Sub(ph.header)
		st.total += t1.Sub(t0)
		if cr.n%spanEvery == 0 {
			tid := 10 + cr.id
			cr.spans.add("client."+opName(op), tid, t0, t1)
			cr.spans.add("client.encode", tid, t0, ph.flushed)
			cr.spans.add("client.wait", tid, ph.flushed, ph.header)
			cr.spans.add("client.decode", tid, ph.header, t1)
		}
		cr.n++
	}
	if ok && len(st.log) < replayCap {
		st.log = append(st.log, logEntry{at: t1.Sub(cr.t0), op: op, key: cr.load.keys[k], val: val})
	}
	return nil
}

func (st *connStats) fail(msg string) {
	st.failed++
	if st.firstErr == "" {
		st.firstErr = msg
	}
}

func opName(op byte) string {
	if op == opPut {
		return "put"
	}
	return "get"
}

// serveStream rebuilds, from the clients' logs in completion order, the
// request stream shard 0's controller executed: keys route to shards by
// CRC-32 and take the shard's next free line on first PUT; a value is stored
// behind a 2-byte length, as the daemon stores it.
func serveStream(logs [][]logEntry) stream {
	var all []logEntry
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	slots := map[string]uint64{}
	var reqs []trace.Request
	for _, e := range all {
		if hashes.CRC32([]byte(e.key))%serveShards != 0 {
			continue
		}
		slot, ok := slots[e.key]
		if e.op == opPut {
			if !ok {
				slot = uint64(len(slots))
				slots[e.key] = slot
			}
			line := make([]byte, config.LineSize)
			binary.BigEndian.PutUint16(line, uint16(len(e.val)))
			copy(line[2:], e.val)
			reqs = append(reqs, trace.Request{Op: trace.Write, Addr: slot, Data: line})
		} else if ok {
			reqs = append(reqs, trace.Request{Op: trace.Read, Addr: slot})
		}
		if len(reqs) == replayCap {
			break
		}
	}
	lines := shard.NewRouter(serveShards).LinesFor(0, serveLines)
	// Each shard owns an equal slice of the default device's banks on one
	// rank, as NewServer configures it.
	cfg := config.Default()
	cfg.NVM.BanksPerRank = cfg.NVM.Banks() / serveShards
	cfg.NVM.Ranks = 1
	prof := workload.Profile{Name: "serve-mixed", Threads: 1, WorkingSetLines: lines}
	return stream{
		name: "serve-mixed/shard0", prof: prof, cfg: cfg, dataLines: lines,
		opts: sim.Options{Requests: len(reqs), Prepared: &sim.Prepared{App: prof.Name, Requests: reqs}},
	}
}

// client speaks the daemon's framed protocol over one connection:
//
//	request:  op(1) keyLen(2 BE) valLen(4 BE) deadlineMs(2 BE) key val
//	response: status(1) valLen(4 BE) val
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	hdr  [9]byte
	resp [5]byte
	body []byte
}

// phaseTimes marks when a request was flushed and when its response header
// arrived.
type phaseTimes struct{ flushed, header time.Time }

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// do sends one request without a deadline and reads the response; the body
// is valid until the next call.
func (cl *client) do(op byte, key string, val []byte, ph *phaseTimes) (byte, []byte, error) {
	cl.hdr[0] = op
	binary.BigEndian.PutUint16(cl.hdr[1:3], uint16(len(key)))
	binary.BigEndian.PutUint32(cl.hdr[3:7], uint32(len(val)))
	binary.BigEndian.PutUint16(cl.hdr[7:9], 0)
	cl.w.Write(cl.hdr[:]) // a failed write fails the Flush below
	cl.w.WriteString(key)
	cl.w.Write(val)
	if err := cl.w.Flush(); err != nil {
		return 0, nil, err
	}
	ph.flushed = time.Now()
	if _, err := io.ReadFull(cl.r, cl.resp[:]); err != nil {
		return 0, nil, err
	}
	ph.header = time.Now()
	n := binary.BigEndian.Uint32(cl.resp[1:5])
	if n > maxResponse {
		return 0, nil, fmt.Errorf("response length %d exceeds %d", n, maxResponse)
	}
	if cap(cl.body) < int(n) {
		cl.body = make([]byte, n)
	}
	body := cl.body[:n]
	if _, err := io.ReadFull(cl.r, body); err != nil {
		return 0, nil, err
	}
	return cl.resp[0], body, nil
}

// daemon is one running dewrite-serve process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // framed protocol
	ops     string // /metrics and /readyz
	http    *http.Client
	drained chan struct{} // closed once the daemon's stdout reaches EOF
	setup   time.Duration // exec to /readyz answering 200
}

func startDaemon(path string) (*daemon, error) {
	cmd := exec.Command(path, "-shards", strconv.Itoa(serveShards),
		"-lines", strconv.Itoa(serveLines), "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", path, err)
	}
	d := &daemon{
		cmd:     cmd,
		http:    &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}},
		drained: make(chan struct{}),
	}
	// The daemon announces both addresses on stdout; later lines are
	// drained so it never blocks on a full pipe.
	lines := make(chan string, 8)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
	}()
	timeout := time.After(10 * time.Second)
	for d.addr == "" || d.ops == "" {
		select {
		case l := <-lines:
			if _, rest, ok := strings.Cut(l, "metrics on http://"); ok {
				d.ops, _, _ = strings.Cut(rest, "/")
			}
			if _, rest, ok := strings.Cut(l, "listening on "); ok {
				d.addr = strings.TrimSpace(rest)
			}
		case <-d.drained:
			d.stop()
			return nil, errors.New("dewrite-serve exited during start-up")
		case <-timeout:
			d.stop()
			return nil, errors.New("dewrite-serve did not announce its addresses within 10s")
		}
	}
	for {
		resp, err := d.http.Get("http://" + d.ops + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, errors.New("dewrite-serve not ready within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// stop shuts the daemon down gracefully, killing it if it takes over 10 s,
// and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // exit status after SIGTERM carries no information
	d.http.CloseIdleConnections()
}

// scrape reads /metrics into sample name (labels included) → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.http.Get("http://" + d.ops + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		l := sc.Text()
		i := strings.LastIndexByte(l, ' ')
		if i < 0 || strings.HasPrefix(l, "#") {
			continue
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", l, err)
		}
		m[l[:i]] = v
	}
	return m, sc.Err()
}

// sumFamily sums every sample whose name starts with prefix.
func sumFamily(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// cpuTime is the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("unexpected /proc/<pid>/stat layout")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("unexpected /proc/<pid>/stat layout")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB is the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

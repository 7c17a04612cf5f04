package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dewrite/internal/attr"
	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/dedup"
	"dewrite/internal/hashes"
	"dewrite/internal/metacache"
	"dewrite/internal/nvm"
	"dewrite/internal/shard"
	"dewrite/internal/sim"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// This file is the traced run shared by every workload. The workload hands
// over its request streams; each is replayed through sim.Run twice over a
// fresh DeWrite controller: once plainly, once through timedMemory, which
// timestamps every controller call from outside. The two reports must be
// byte-identical. The stages a write crosses are then timed in batches over
// the payloads the traced replay captured.

const (
	captureLines = 1 << 16 // write payloads kept for the stage timings
	stageBatch   = 256     // calls per timed batch: a clock read pair costs about half a CRC-32
	spanEvery    = 64      // every Nth request is recorded as spans
)

// stream is one request stream the traced run replays.
type stream struct {
	name      string
	prof      workload.Profile
	cfg       config.Config
	dataLines uint64
	opts      sim.Options
}

// probe accumulates the traced replays' measurements across controllers.
type probe struct {
	spans *spanLog

	gapNs, gaps            int64 // harness time between consecutive controller calls
	unique, dup, read      meanNs
	uniqueLookups          uint64 // metadata-cache lookups inside unique writes
	dupLookups, dupVerify  uint64 // ... inside duplicate writes; non-zero duplicates (verify read)
	writeLatUs, readLatUs  []float64
	requests               int64
	addrs                  []uint64
	data                   []byte // captured payloads, LineSize bytes each
	dataLines              uint64
	cfg                    config.Config
	totals                 core.Report // counts summed over the replayed controllers
	predCorrect            float64
	cacheHits, cacheAccess map[string]uint64
}

type meanNs struct{ sum, n int64 }

func (m *meanNs) add(d time.Duration) { m.sum += int64(d); m.n++ }
func (m meanNs) mean() float64        { return ratio(float64(m.sum), float64(m.n)) }

// timedMemory is the traced replay's sim.Memory: it forwards every call to
// the controller and timestamps it. Bookkeeping that needs the controller's
// state (duplicate classification, cache lookups) happens outside the timed
// interval, and the harness gap is taken before it.
type timedMemory struct {
	ctrl *core.Controller
	p    *probe
	last time.Time // end of the previous controller call
	n    int64
}

func (m *timedMemory) gap(entry time.Time) {
	if !m.last.IsZero() {
		m.p.gapNs += int64(entry.Sub(m.last))
		m.p.gaps++
		if m.n%spanEvery == 0 {
			m.p.spans.add("sim.harness", 1, m.last, entry)
		}
	}
	m.n++
}

func (m *timedMemory) Write(now units.Time, logical uint64, data []byte) units.Time {
	entry := time.Now()
	m.gap(entry)
	p := m.p
	dups := m.ctrl.Tables().Snapshot().Duplicates
	lk := lookups(m.ctrl)
	if len(p.addrs) < captureLines {
		p.addrs = append(p.addrs, logical)
		p.data = append(p.data, data...)
	}
	t0 := time.Now()
	done := m.ctrl.Write(now, logical, data)
	t1 := time.Now()
	m.last = t1
	d := t1.Sub(t0)
	p.writeLatUs = append(p.writeLatUs, float64(d)/1e3)
	name := "core.write.unique"
	if m.ctrl.Tables().Snapshot().Duplicates != dups {
		name = "core.write.dup"
		p.dup.add(d)
		p.dupLookups += lookups(m.ctrl) - lk
		if !isZero(data) {
			p.dupVerify++
		}
	} else {
		p.unique.add(d)
		p.uniqueLookups += lookups(m.ctrl) - lk
	}
	if m.n%spanEvery == 0 {
		p.spans.add(name, 1, t0, t1)
	}
	return done
}

func (m *timedMemory) ReadInto(now units.Time, logical uint64, dst []byte) units.Time {
	t0 := time.Now()
	m.gap(t0)
	done := m.ctrl.ReadInto(now, logical, dst)
	t1 := time.Now()
	m.last = t1
	m.p.read.add(t1.Sub(t0))
	m.p.readLatUs = append(m.p.readLatUs, float64(t1.Sub(t0))/1e3)
	if m.n%spanEvery == 0 {
		m.p.spans.add("core.read", 1, t0, t1)
	}
	return done
}

func (m *timedMemory) Read(now units.Time, logical uint64) ([]byte, units.Time) {
	out := make([]byte, config.LineSize)
	return out, m.ReadInto(now, logical, out)
}

// Device lets the harness read the device counters, as it does for the
// controller itself.
func (m *timedMemory) Device() *nvm.Device { return m.ctrl.Device() }

func lookups(c *core.Controller) uint64 {
	var n uint64
	for _, mc := range c.MetaCaches() {
		st := mc.Stats()
		n += st.Hits + st.Misses
	}
	return n
}

func isZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// layerRun replays streams untraced and then traced and sets the harness,
// controller and stage metrics on o. Each stream's traced report must equal its untraced
// one; with key set, the digests also go through the golden checker as
// key/<stream name> (key alone for a single stream named "").
func layerRun(c *runConfig, o *outcome, key string, streams []stream) error {
	p := &probe{spans: c.spans, cfg: streams[0].cfg, cacheHits: map[string]uint64{}, cacheAccess: map[string]uint64{}}
	var untraced, traced time.Duration
	var mallocs uint64
	plain := make([]string, len(streams))
	cpu0 := cpuTime()
	for i, s := range streams {
		mem := sim.NewMemory(sim.SchemeDeWrite, s.dataLines, s.cfg)
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res := sim.Run(s.prof.Name, sim.SchemeDeWrite.String(), mem, s.prof, s.opts)
		untraced += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		p.requests += int64(s.opts.Requests)
		d, err := reportDigest(res, mem)
		if err != nil {
			return err
		}
		plain[i] = d
	}
	cpu := cpuTime() - cpu0
	c.logger("  untraced replay: %d requests in %v", p.requests, untraced.Round(time.Millisecond))

	for i, s := range streams {
		ctrl := sim.NewMemory(sim.SchemeDeWrite, s.dataLines, s.cfg).(*core.Controller)
		tm := &timedMemory{ctrl: ctrl, p: p}
		runtime.GC()
		t0 := time.Now()
		res := sim.Run(s.prof.Name, sim.SchemeDeWrite.String(), tm, s.prof, s.opts)
		t1 := time.Now()
		traced += t1.Sub(t0)
		c.spans.add("replay "+s.prof.Name, 0, t0, t1)
		p.dataLines = max(p.dataLines, s.dataLines)
		p.count(ctrl)
		d, err := reportDigest(res, ctrl)
		if err != nil {
			return err
		}
		ok := d == plain[i]
		if key == "" && !ok {
			o.problem("%s: traced replay report differs from the untraced one", s.name)
		}
		if key != "" {
			k := key
			if s.name != "" {
				k += "/" + s.name
			}
			ok = c.check.check(k, plain[i]) && c.check.check(k, d)
		}
		if !ok {
			o.failed += int64(s.opts.Requests)
		}
	}
	c.logger("  traced replay: %v", traced.Round(time.Millisecond))
	o.attempted += 2 * p.requests

	o.values["sim.allocs_per_req"] = ratio(float64(mallocs), float64(p.requests))
	o.values["sim.trace_overhead_frac"] = ratio(float64(traced), float64(untraced)) - 1
	o.values["process.cpu_us_per_op"] = ratio(float64(cpu)/1e3, float64(p.requests))
	p.report(o)
	return nil
}

func reportDigest(res sim.Result, mem sim.Memory) (string, error) {
	var buf bytes.Buffer
	if err := sim.NewRunReport(res, mem).WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("run report: %w", err)
	}
	return digest(buf.Bytes()), nil
}

// count adds one finished controller's counters to the totals.
func (p *probe) count(ctrl *core.Controller) {
	r := ctrl.Report()
	t := &p.totals
	t.Writes += r.Writes
	t.Reads += r.Reads
	t.DupEliminated += r.DupEliminated
	t.AESLineOps += r.AESLineOps
	t.AESWasted += r.AESWasted
	t.CompareOps += r.CompareOps
	t.Device.Writes += r.Device.Writes
	p.predCorrect += r.PredAccuracy * float64(r.Writes)
	for _, mc := range ctrl.MetaCaches() {
		st := mc.Stats()
		p.cacheHits[mc.Name()] += st.Hits
		p.cacheAccess[mc.Name()] += st.Hits + st.Misses
	}
}

// report sets the probe's metrics on o: controller call costs, the stage
// timings and the residual each controller path leaves after its stages.
func (p *probe) report(o *outcome) {
	if len(p.addrs) == 0 {
		o.problem("traced replay captured no writes")
		return
	}
	v := o.values
	t := p.totals
	reqs := float64(t.Writes + t.Reads)
	v["sim.harness_ns"] = ratio(float64(p.gapNs), float64(p.gaps))
	v["core.write_unique_ns"] = p.unique.mean()
	v["core.write_dup_ns"] = p.dup.mean()
	v["core.read_ns"] = p.read.mean()
	v["client.put_samples"] = float64(len(p.writeLatUs))
	v["client.get_samples"] = float64(len(p.readLatUs))
	v["client.put_p50_us"] = percentile(p.writeLatUs, 0.50)
	v["client.put_p99_us"] = percentile(p.writeLatUs, 0.99)
	v["client.get_p50_us"] = percentile(p.readLatUs, 0.50)
	v["client.get_p99_us"] = percentile(p.readLatUs, 0.99)

	v["core.dedup_ratio"] = ratio(float64(t.DupEliminated), float64(t.Writes))
	v["core.aes_lines_per_req"] = ratio(float64(t.AESLineOps), reqs)
	v["core.aes_wasted_frac"] = ratio(float64(t.AESWasted), float64(t.AESLineOps))
	v["core.compares_per_dup"] = ratio(float64(t.CompareOps), float64(t.DupEliminated))
	v["predict.accuracy"] = ratio(p.predCorrect, float64(t.Writes))
	var access uint64
	for name, n := range p.cacheAccess {
		access += n
		v["metacache."+name+".hit_rate"] = ratio(float64(p.cacheHits[name]), float64(n))
	}
	v["metacache.lookups_per_req"] = ratio(float64(access), reqs)
	v["nvm.device_writes_per_req"] = ratio(float64(t.Device.Writes), reqs)

	p.stages(v)
	lookupsPerUnique := ratio(float64(p.uniqueLookups), float64(p.unique.n))
	lookupsPerDup := ratio(float64(p.dupLookups), float64(p.dup.n))
	verifyPerDup := ratio(float64(p.dupVerify), float64(p.dup.n))
	front := v["hashes.crc32_ns"] + v["dedup.candidates_ns"]
	v["core.write_unique_residual_ns"] = v["core.write_unique_ns"] - front -
		v["cme.encrypt_line_ns"] - v["nvm.write_ns"] - lookupsPerUnique*v["metacache.lookup_ns"]
	v["core.write_dup_residual_ns"] = v["core.write_dup_ns"] - front -
		verifyPerDup*(v["cme.decrypt_line_ns"]+v["nvm.read_ns"]) - lookupsPerDup*v["metacache.lookup_ns"]
}

// Sinks keep the compiler from discarding timed calls whose results are
// otherwise unused.
var (
	sinkU32  uint32
	sinkInt  int
	sinkBool bool
)

// stages times each stage of the write path in batches of stageBatch calls
// over the captured payloads and sets the median per-call cost on v. Each
// stage gets fresh state built with the controller's configuration.
func (p *probe) stages(v map[string]float64) {
	n := len(p.addrs)
	line := func(i int) []byte { return p.data[i*config.LineSize : (i+1)*config.LineSize] }
	mask := ^uint32(0)
	if bits := p.cfg.Dedup.HashSizeBits; bits > 0 && bits < 32 {
		mask = 1<<uint(bits) - 1
	}
	fps := make([]uint32, n)
	for i := range fps {
		fps[i] = hashes.CRC32(line(i)) & mask
	}
	layout := dedup.NewLayout(p.dataLines)
	mapLines := make([]uint64, n)
	for i, a := range p.addrs {
		mapLines[i] = layout.AddrMapLine(a)
	}

	measure := func(name string, call func(i int)) {
		v[name] = timeBatches(p.spans, name, n, call)
	}
	measure("hashes.crc32_ns", func(i int) { sinkU32 ^= hashes.CRC32(line(i)) })

	eng := cme.MustNewEngine([]byte("benchmark-key-16"))
	var ct [config.LineSize]byte
	measure("cme.encrypt_line_ns", func(i int) { eng.EncryptLine(ct[:], line(i), p.addrs[i], uint64(i)) })
	measure("cme.decrypt_line_ns", func(i int) { eng.DecryptLine(ct[:], line(i), p.addrs[i], uint64(i)) })

	geom := p.cfg.NVM
	geom.CapacityBytes = layout.TotalLines * config.LineSize
	dev := nvm.New(geom, p.cfg.Timing, p.cfg.Energy)
	var now units.Time
	measure("nvm.write_ns", func(i int) { now, sinkBool = dev.WriteCheckedTagged(now, p.addrs[i], line(i), attr.CauseUnique) })
	measure("nvm.read_ns", func(i int) { now = dev.ReadBypassInto(now, p.addrs[i], ct[:]) })

	mc := p.cfg.MetaCache
	cache := metacache.New("addrmap", mc.AddrMapBytes, mc.BlockBytes, mc.Ways)
	for _, l := range mapLines {
		if !cache.Lookup(l, false) {
			cache.Insert(l, false)
		}
	}
	measure("metacache.lookup_ns", func(i int) { sinkBool = cache.Lookup(mapLines[i], false) })

	tables := dedup.NewTables(p.dataLines, p.cfg.Dedup.MaxReference)
	for i, a := range p.addrs {
		tables.PlaceUnique(a, fps[i])
	}
	measure("dedup.candidates_ns", func(i int) { sinkInt += len(tables.Candidates(fps[i])) })

	// The cross-shard directory at two shards, fed these fingerprints and
	// advanced after every 1024 publishes, as dewrite-serve advances after
	// every 1024 requests.
	dir := shard.NewDirectory(2)
	router := shard.NewRouter(2)
	size := min(stageBatch, n)
	var publishes, advances []float64
	for b := 0; b+size <= n; b += size {
		t0 := time.Now()
		for i := b; i < b+size; i++ {
			dir.Publish(router.ShardOf(p.addrs[i]), fps[i], 1)
		}
		t1 := time.Now()
		publishes = append(publishes, float64(t1.Sub(t0))/float64(size))
		p.spans.add("shard.publish", 2, t0, t1)
		if (b+size)%1024 == 0 || b+2*size > n {
			dir.Advance()
			t2 := time.Now()
			advances = append(advances, float64(t2.Sub(t1))/1e3)
			p.spans.add("shard.advance", 2, t1, t2)
		}
	}
	v["shard.publish_ns"] = median(publishes)
	v["shard.advance_us"] = median(advances)
}

// timeBatches times call over indices [0, n) in batches of stageBatch calls
// and returns the median per-call cost in ns.
func timeBatches(spans *spanLog, name string, n int, call func(i int)) float64 {
	size := min(stageBatch, n)
	var per []float64
	for b := 0; size > 0 && b+size <= n; b += size {
		t0 := time.Now()
		for i := b; i < b+size; i++ {
			call(i)
		}
		t1 := time.Now()
		per = append(per, float64(t1.Sub(t0))/float64(size))
		spans.add(name, 2, t0, t1)
	}
	return median(per)
}

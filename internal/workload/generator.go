package workload

import (
	"fmt"
	"sync"

	"dewrite/internal/config"
	"dewrite/internal/dense"
	"dewrite/internal/rng"
	"dewrite/internal/trace"
)

// lineBuf is one cache line of payload. Buffers circulate through linePool so
// the steady-state write path allocates nothing.
type lineBuf [config.LineSize]byte

// linePool recycles line buffers across generators. A *lineBuf fits in an
// interface word, so Get/Put never allocate; pooled buffers hold stale
// contents and every code path must fully overwrite what it takes out.
var linePool = sync.Pool{New: func() interface{} { return new(lineBuf) }}

// Generator produces an endless memory-request stream matching a Profile.
// It maintains a shadow memory of line contents so that a "duplicate" write
// literally copies the live content of a resident line — the property the
// dedup hardware detects. Not safe for concurrent use.
type Generator struct {
	prof Profile
	src  *rng.Source

	// shadow holds the live plaintext per written logical line, indexed by
	// address and grown on first touch up to WorkingSetLines; nil means
	// never written.
	shadow  []*lineBuf
	written []uint64 // write-ordered addresses (recency-weighted picks)
	zeroRes uint64   // how many lines currently hold the zero line
	recycle bool     // return replaced shadow buffers to linePool
	// hold, when set, collects the buffers that recycle mode displaces
	// instead of returning them to linePool at once: a Stream points it at
	// the chunk being generated and recycles the list when the consumer
	// releases that chunk.
	hold *[]*lineBuf

	dupState bool
	p11, p00 float64 // Markov stay probabilities for dup / non-dup states
	glitch   float64 // probability a single write deviates from the state

	burstAddr uint64 // sequential write-burst cursor
	burstLeft uint64 // remaining lines in the current burst

	phase       int // index into prof.Phases (when phased)
	phaseWrites int // writes remaining in the current phase

	seq        uint64
	writes     uint64
	dups       uint64 // ground truth: content resident when written
	zeroWrites uint64
	reads      uint64
}

// NewGenerator returns a generator for the profile, seeded deterministically.
func NewGenerator(p Profile, seed uint64) *Generator {
	if p.WorkingSetLines == 0 {
		panic("workload: profile with zero working set")
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	g := &Generator{
		prof: p,
		src:  rng.New(seed),
	}
	// Isolated glitches: single writes that deviate from the current
	// duplication state without ending the run (e.g. one unique line in the
	// middle of a duplicate stream). They are what makes the 3-bit majority
	// window beat the 1-bit predictor (Figure 4). The Markov parameters are
	// adjusted so the workload still hits DupRatio and StateSame overall.
	r, sSame := p.DupRatio, p.StateSame
	g.glitch = 0.03
	if lim := minF(r, 1-r) / 2; g.glitch > lim {
		g.glitch = lim
	}
	gl := g.glitch
	rState := r
	sState := sSame
	if gl > 0 {
		rState = clamp01((r - gl) / (1 - 2*gl))
		a := (1-gl)*(1-gl) + gl*gl // P(glitch state equal on consecutive writes)
		b := 2 * gl * (1 - gl)
		if a != b {
			sState = clamp01((sSame - b) / (a - b))
		}
	}
	g.p11, g.p00 = markovStay(rState, sState)
	g.dupState = g.src.Bool(rState)
	if len(p.Phases) > 0 {
		g.enterPhase(0)
	}
	return g
}

// enterPhase re-derives the duplication machinery for phase i.
func (g *Generator) enterPhase(i int) {
	ph := g.prof.Phases[i]
	g.phase = i
	g.phaseWrites = ph.Writes
	g.prof.DupRatio = ph.DupRatio
	g.prof.ZeroRatio = ph.ZeroRatio
	r := ph.DupRatio
	gl := 0.03
	if lim := minF(r, 1-r) / 2; gl > lim {
		gl = lim
	}
	g.glitch = gl
	rState, sState := r, g.prof.StateSame
	if gl > 0 {
		rState = clamp01((r - gl) / (1 - 2*gl))
		a := (1-gl)*(1-gl) + gl*gl
		b := 2 * gl * (1 - gl)
		if a != b {
			sState = clamp01((g.prof.StateSame - b) / (a - b))
		}
	}
	g.p11, g.p00 = markovStay(rState, sState)
}

// markovStay derives the two-state Markov chain stay probabilities that hit
// a stationary duplicate fraction r with same-state probability s. For
// extreme r the requested s is infeasible and is clamped to the floor.
func markovStay(r, s float64) (p11, p00 float64) {
	switch {
	case r <= 0:
		return 0, 1
	case r >= 1:
		return 1, 0
	}
	if floor := 1 - 2*minF(r, 1-r); s < floor {
		s = floor
	}
	if s > 1 {
		s = 1
	}
	flow := (1 - s) / 2
	p11 = 1 - flow/r
	p00 = 1 - flow/(1-r)
	return clamp01(p11), clamp01(p00)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// SetRecycle switches the generator into recycle mode: when a shadow line is
// overwritten its old buffer goes back to the line pool for reuse, making the
// steady-state write path allocation-free. Because a Request's Data aliases
// the installed shadow buffer, recycling is only safe when the consumer is
// done with a payload before it needs a later one. Called directly, Next
// recycles at once, so Data is valid only until a later request rewrites the
// same logical line; driven by a Stream, a displaced buffer waits for the
// chunk that displaced it, so Data stays valid until the next Stream.Next.
// Consumers that retain payloads (trace materialization, cache-hierarchy
// write-back shadowing) must leave it off.
func (g *Generator) SetRecycle(on bool) { g.recycle = on }

// newLine takes a buffer from the pool. Its contents are stale; every caller
// fully overwrites it.
func (g *Generator) newLine() *lineBuf {
	return linePool.Get().(*lineBuf)
}

// Next produces the next memory request. A write payload aliases the line's
// shadow buffer: callers must not mutate it, and in recycle mode (see
// SetRecycle) it is only valid until the line is next rewritten.
func (g *Generator) Next() trace.Request {
	thread := int(g.seq % uint64(g.prof.Threads))
	g.seq++
	gap := g.gap()

	if len(g.written) == 0 || g.src.Bool(g.prof.WriteFrac) {
		return g.nextWrite(thread, gap)
	}
	g.reads++
	// Half the reads exhibit read-after-write spatial locality: they target
	// the most recent write or a neighbour in the same device row, the
	// pattern that makes reads queue behind in-flight writes.
	addr := g.pickRecent()
	if g.src.Bool(0.5) {
		last := g.written[len(g.written)-1]
		addr = last + g.src.Uint64n(4)
		if addr >= g.prof.WorkingSetLines {
			addr = last
		}
	}
	return trace.Request{
		Op:     trace.Read,
		Addr:   addr,
		Thread: thread,
		Gap:    gap,
	}
}

func (g *Generator) gap() uint64 {
	if g.prof.MemGap <= 0 {
		return 0
	}
	return g.src.Geometric(1 / (1 + g.prof.MemGap))
}

func (g *Generator) nextWrite(thread int, gap uint64) trace.Request {
	// Phase transition: re-derive the duplication machinery when the
	// current phase's write budget is spent.
	if len(g.prof.Phases) > 0 {
		if g.phaseWrites <= 0 {
			g.enterPhase((g.phase + 1) % len(g.prof.Phases))
		}
		g.phaseWrites--
	}
	// Advance the duplication-state Markov chain.
	if g.dupState {
		g.dupState = g.src.Bool(g.p11)
	} else {
		g.dupState = !g.src.Bool(g.p00)
	}
	out := g.dupState
	if g.glitch > 0 && g.src.Bool(g.glitch) {
		out = !out // isolated deviation; the state itself persists
	}
	wantDup := out && len(g.written) > 0

	addr := g.pickTarget()
	var data *lineBuf
	resident := false
	switch {
	case wantDup && g.shouldWriteZero():
		data = g.newLine()
		clear(data[:])
		// The zero line is a duplicate only once some line already holds it.
		resident = g.zeroRes > 0
	case wantDup && g.canSilentStore(addr) && g.src.Bool(0.5):
		// A silent store: rewriting the line with its own current content
		// (programs frequently store unchanged values). Still a duplicate —
		// the content is resident at the target itself — and the case that
		// keeps DEUCE's modified-word count low on duplicate traffic.
		data = g.newLine()
		*data = *g.shadow[addr]
		resident = true
	case wantDup:
		// Copying a live line's content makes this write a duplicate by
		// construction: the source remains resident until after this write.
		// Sources are only mildly recency-skewed: real duplicate contents
		// are diverse, so verify reads spread across banks. Zero-line
		// sources are rerolled so the explicit zero fraction above stays
		// calibrated (otherwise zero content snowballs through copies); if
		// everything sampled is zero, the write degrades to unique content.
		src := g.pickWritten(0.4)
		for retry := 0; retry < 8 && config.IsZeroLine(g.shadow[src][:]); retry++ {
			src = g.pickWritten(0.4)
		}
		if config.IsZeroLine(g.shadow[src][:]) {
			data = g.freshContent(addr)
		} else {
			data = g.newLine()
			*data = *g.shadow[src]
			resident = true
		}
	default:
		// A fresh content collides with a resident line with negligible
		// probability (random 16-bit words over a 2048-bit line).
		data = g.freshContent(addr)
	}

	if resident {
		g.dups++
	}
	if config.IsZeroLine(data[:]) {
		g.zeroWrites++
	}
	g.installShadow(addr, data)
	g.writes++

	return trace.Request{
		Op:     trace.Write,
		Addr:   addr,
		Data:   data[:],
		Thread: thread,
		Gap:    gap,
	}
}

// canSilentStore reports whether addr holds non-zero content that a silent
// store could rewrite (zero targets are left to the explicit zero path so
// the zero fraction stays calibrated).
func (g *Generator) canSilentStore(addr uint64) bool {
	old := g.line(addr)
	return old != nil && !config.IsZeroLine(old[:])
}

// line returns addr's live content, nil if it was never written.
func (g *Generator) line(addr uint64) *lineBuf {
	if addr < uint64(len(g.shadow)) {
		return g.shadow[addr]
	}
	return nil
}

// shouldWriteZero decides whether a duplicate write should be the zero line,
// keeping the overall zero fraction near the profile's ZeroRatio.
func (g *Generator) shouldWriteZero() bool {
	if g.prof.DupRatio <= 0 {
		return false
	}
	p := g.prof.ZeroRatio / g.prof.DupRatio
	return g.src.Bool(p)
}

// pickTarget chooses the logical line to write. Writes arrive in sequential
// bursts (streaming write-backs of adjacent lines, which share a device row
// and therefore a bank), with burst starts Zipf-skewed over the working set
// so hot regions are rewritten more often.
func (g *Generator) pickTarget() uint64 {
	if g.burstLeft > 0 {
		g.burstLeft--
		g.burstAddr++
		if g.burstAddr >= g.prof.WorkingSetLines {
			g.burstAddr = 0
		}
		return g.burstAddr
	}
	g.burstAddr = g.src.Zipf(g.prof.WorkingSetLines, g.prof.Locality)
	g.burstLeft = g.src.Uint64n(16) // bursts of 1-16 sequential lines
	return g.burstAddr
}

// pickRecent chooses a previously written address, weighted toward recent
// writes (temporal locality of reads).
func (g *Generator) pickRecent() uint64 {
	return g.pickWritten(g.prof.Locality)
}

// pickWritten chooses a previously written address with the given recency
// skew.
func (g *Generator) pickWritten(theta float64) uint64 {
	n := uint64(len(g.written))
	idx := n - 1 - g.src.Zipf(n, theta)
	return g.written[idx]
}

// freshContent builds a non-duplicate payload: a partial rewrite of the
// line's previous content when one exists (modifying RewriteWords 16-bit
// words — the sparse-update pattern DEUCE exploits), or a fully random line
// on first touch.
func (g *Generator) freshContent(addr uint64) *lineBuf {
	old := g.line(addr)
	data := g.newLine()
	if old == nil || g.prof.RewriteWords >= config.LineSize/2 {
		g.src.Fill(data[:])
		return data
	}
	*data = *old
	words := g.prof.RewriteWords
	if words < 1 {
		words = 1
	}
	for k := 0; k < words; k++ {
		w := g.src.Intn(config.LineSize / 2)
		v := uint16(g.src.Uint64())
		data[2*w] = byte(v)
		data[2*w+1] = byte(v >> 8)
	}
	// Guarantee the content actually changed.
	if *data == *old {
		data[0] ^= 0x01
	}
	return data
}

// installShadow makes data the live content of addr. The buffer is shared
// with the Request returned to the caller; in recycle mode the displaced
// buffer goes back to the pool, or onto the hold list when a Stream's
// consumer may still be reading the request that owns it.
func (g *Generator) installShadow(addr uint64, data *lineBuf) {
	g.shadow = dense.Grow(g.shadow, addr, g.prof.WorkingSetLines)
	old := g.shadow[addr]
	if old != nil && config.IsZeroLine(old[:]) {
		g.zeroRes--
	}
	g.shadow[addr] = data
	if config.IsZeroLine(data[:]) {
		g.zeroRes++
	}
	g.written = append(g.written, addr)
	if g.recycle && old != nil {
		if g.hold != nil {
			*g.hold = append(*g.hold, old)
		} else {
			linePool.Put(old)
		}
	}
}

// Stats reports the generator's ground-truth counters.
type Stats struct {
	Writes     uint64
	Reads      uint64
	Duplicates uint64 // writes whose content was resident (ground truth)
	ZeroWrites uint64
}

// Stats returns the counters accumulated so far.
func (g *Generator) Stats() Stats {
	return Stats{
		Writes:     g.writes,
		Reads:      g.reads,
		Duplicates: g.dups,
		ZeroWrites: g.zeroWrites,
	}
}

// Generate materializes a trace of n requests.
func Generate(p Profile, seed uint64, n int) *trace.Trace {
	g := NewGenerator(p, seed)
	t := &trace.Trace{
		Name:     p.Name,
		Lines:    p.WorkingSetLines,
		Requests: make([]trace.Request, 0, n),
	}
	for i := 0; i < n; i++ {
		t.Requests = append(t.Requests, g.Next())
	}
	return t
}

// String describes the profile compactly.
func (p Profile) String() string {
	return fmt.Sprintf("%s(%s dup=%.1f%% zero=%.1f%%)", p.Name, p.Suite,
		p.DupRatio*100, p.ZeroRatio*100)
}

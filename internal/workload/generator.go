package workload

import (
	"fmt"

	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/trace"
)

// lineBuf is one cache line of payload.
type lineBuf [config.LineSize]byte

// blockLines is how many payload lines one allocation holds: 64 KiB.
const blockLines = 256

// lineBlocks hands out payload lines blockLines at a time, so copies cost
// one allocation per block instead of one per line.
type lineBlocks struct {
	blocks [][]lineBuf
	used   int // lines handed out; zeroed to reuse the blocks
}

// copyLine copies l into the next free line and returns the copy.
func (b *lineBlocks) copyLine(l *lineBuf) []byte {
	i := b.used / blockLines
	if i == len(b.blocks) {
		b.blocks = append(b.blocks, make([]lineBuf, blockLines))
	}
	dst := &b.blocks[i][b.used%blockLines]
	*dst = *l
	b.used++
	return dst[:]
}

// Generator produces an endless memory-request stream matching a Profile.
// It maintains a shadow memory of line contents so that a "duplicate" write
// literally copies the live content of a resident line — the property the
// dedup hardware detects. Not safe for concurrent use.
type Generator struct {
	prof Profile
	src  *rng.Source
	gap  rng.Geometric // instructions between memory operations

	// shadow holds the live plaintext of every logical line, built in place
	// by each write; live marks the lines ever written. Both are allocated
	// at the first write.
	shadow  []lineBuf
	live    []bool
	written []uint32   // write-ordered addresses (recency-weighted picks)
	zeroRes uint64     // how many written lines hold the zero line
	recycle bool       // hand out shadow lines instead of copies (SetRecycle)
	kept    lineBlocks // payload copies with recycle off, never reused

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
	if p.WorkingSetLines >= 1<<32 {
		panic("workload: working set of 2^32 lines or more")
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	g := &Generator{
		prof: p,
		src:  rng.New(seed),
		gap:  rng.NewGeometric(1 / (1 + max(p.MemGap, 0))),
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

// SetRecycle sets who owns a write's payload. In recycle mode Data is the
// line's shadow content itself, so Next allocates nothing, but Data is valid
// only until a later request rewrites the same logical line; a Stream copies
// it into its chunk, where it stays valid until the next Stream.Next. With
// recycle off (the default) Data is a copy in a block of payload lines the
// generator never reuses, valid for good: consumers that retain payloads
// (trace materialization, cache-hierarchy write-back shadowing) leave it off.
func (g *Generator) SetRecycle(on bool) { g.recycle = on }

// Next produces the next memory request. Callers must not mutate a write's
// payload; how long it stays valid depends on SetRecycle.
func (g *Generator) Next() trace.Request {
	thread := int(g.seq % uint64(g.prof.Threads))
	g.seq++
	gap := g.gap.Draw(g.src)

	if len(g.written) == 0 || g.src.Bool(g.prof.WriteFrac) {
		return g.nextWrite(thread, gap)
	}
	g.reads++
	// Half the reads exhibit read-after-write spatial locality: they target
	// the most recent write or a neighbour in the same device row, the
	// pattern that makes reads queue behind in-flight writes.
	addr := g.pickRecent()
	if g.src.Bool(0.5) {
		last := uint64(g.written[len(g.written)-1])
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
	if g.shadow == nil {
		g.shadow = make([]lineBuf, g.prof.WorkingSetLines)
		g.live = make([]bool, g.prof.WorkingSetLines)
	}
	line := &g.shadow[addr]
	live := g.live[addr]
	wasZero := live && config.IsZeroLine(line[:])
	resident := false
	switch {
	case wantDup && g.shouldWriteZero():
		// The zero line is a duplicate only once some line already holds it.
		resident = g.zeroRes > 0
		clear(line[:])
	case wantDup && live && !wasZero && g.src.Bool(0.5):
		// A silent store: rewriting the line with its own current content
		// (programs frequently store unchanged values). Still a duplicate —
		// the content is resident at the target itself — and the case that
		// keeps DEUCE's modified-word count low on duplicate traffic. Zero
		// targets are left to the explicit zero path so the zero fraction
		// stays calibrated.
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
			g.freshContent(line, live)
		} else {
			*line = g.shadow[src]
			resident = true
		}
	default:
		// A fresh content collides with a resident line with negligible
		// probability (random 16-bit words over a 2048-bit line).
		g.freshContent(line, live)
	}

	if resident {
		g.dups++
	}
	if wasZero {
		g.zeroRes--
	}
	if config.IsZeroLine(line[:]) {
		g.zeroWrites++
		g.zeroRes++
	}
	g.live[addr] = true
	g.written = append(g.written, uint32(addr))
	g.writes++

	data := line[:]
	if !g.recycle {
		data = g.kept.copyLine(line)
	}
	return trace.Request{
		Op:     trace.Write,
		Addr:   addr,
		Data:   data,
		Thread: thread,
		Gap:    gap,
	}
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
	return uint64(g.written[idx])
}

// freshContent rewrites line with non-duplicate content: a partial rewrite
// of its previous content when it was written before (modifying RewriteWords
// 16-bit words — the sparse-update pattern DEUCE exploits), or a fully
// random line on first touch.
func (g *Generator) freshContent(line *lineBuf, live bool) {
	if !live || g.prof.RewriteWords >= config.LineSize/2 {
		g.src.Fill(line[:])
		return
	}
	old := *line
	words := g.prof.RewriteWords
	if words < 1 {
		words = 1
	}
	for k := 0; k < words; k++ {
		w := g.src.Intn(config.LineSize / 2)
		v := uint16(g.src.Uint64())
		line[2*w] = byte(v)
		line[2*w+1] = byte(v >> 8)
	}
	// Guarantee the content actually changed.
	if *line == old {
		line[0] ^= 0x01
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

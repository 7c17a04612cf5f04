package baseline

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/nvm"
	"dewrite/internal/rng"
)

// The oracle models are the bit models as they were before their per-line
// state moved into dense tables of inline arrays: maps of separately
// allocated slices, a fresh line allocated on every write, an engine each,
// and DEUCE's epoch counter and SECRET's zero flags kept although nothing
// reads them. The models must reproduce their flip counts write for write.

type oracleDCW struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	cells map[uint64][]byte
}

func (d *oracleDCW) Name() string { return "DCW" }

func (d *oracleDCW) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	ct := make([]byte, config.LineSize)
	d.enc.EncryptLine(ct, newPlain, loc, d.ctrs.Bump(loc))
	old := d.cells[loc]
	if old == nil {
		old = make([]byte, config.LineSize)
	}
	flips := nvm.BitDistance(old, ct)
	d.cells[loc] = ct
	return flips
}

type oracleFNW struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	cells map[uint64]*oracleFNWLine
}

type oracleFNWLine struct {
	words []uint32
	flags []bool
}

func (f *oracleFNW) Name() string { return "FNW" }

func (f *oracleFNW) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	ct := make([]byte, config.LineSize)
	f.enc.EncryptLine(ct, newPlain, loc, f.ctrs.Bump(loc))

	line := f.cells[loc]
	if line == nil {
		line = &oracleFNWLine{
			words: make([]uint32, FNWWordsPerLine),
			flags: make([]bool, FNWWordsPerLine),
		}
		f.cells[loc] = line
	}
	flips := 0
	for w := 0; w < FNWWordsPerLine; w++ {
		next := uint32(ct[4*w]) | uint32(ct[4*w+1])<<8 | uint32(ct[4*w+2])<<16 | uint32(ct[4*w+3])<<24
		plainCost := bits.OnesCount32(line.words[w]^next) + flagCost(line.flags[w], false)
		invCost := bits.OnesCount32(line.words[w]^^next) + flagCost(line.flags[w], true)
		if invCost < plainCost {
			line.words[w] = ^next
			line.flags[w] = true
			flips += invCost
		} else {
			line.words[w] = next
			line.flags[w] = false
			flips += plainCost
		}
	}
	return flips
}

type oracleDEUCE struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	lines map[uint64]*oracleDEUCELine
}

type oracleDEUCELine struct {
	plain    []byte
	cells    []byte
	epochCtr uint64
	writes   int
	modified []bool
}

func (d *oracleDEUCE) Name() string { return "DEUCE" }

func (d *oracleDEUCE) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := d.lines[loc]
	if line == nil {
		line = &oracleDEUCELine{
			plain:    make([]byte, config.LineSize),
			cells:    make([]byte, config.LineSize),
			modified: make([]bool, DEUCEWordsPerLine),
		}
		d.lines[loc] = line
	}
	for w := 0; w < DEUCEWordsPerLine; w++ {
		for b := 0; b < DEUCEWordBytes; b++ {
			if newPlain[w*DEUCEWordBytes+b] != line.plain[w*DEUCEWordBytes+b] {
				line.modified[w] = true
				break
			}
		}
	}
	line.writes++
	ctr := d.ctrs.Bump(loc)

	next := make([]byte, config.LineSize)
	var pad [config.LineSize]byte
	if line.writes%DEUCEEpoch == 0 {
		line.epochCtr = ctr
		d.enc.Pad(pad[:], loc, ctr)
		for i := range next {
			next[i] = newPlain[i] ^ pad[i]
		}
		for w := range line.modified {
			line.modified[w] = false
		}
	} else {
		d.enc.Pad(pad[:], loc, ctr)
		copy(next, line.cells)
		for w := 0; w < DEUCEWordsPerLine; w++ {
			if !line.modified[w] {
				continue
			}
			for b := 0; b < DEUCEWordBytes; b++ {
				i := w*DEUCEWordBytes + b
				next[i] = newPlain[i] ^ pad[i]
			}
		}
	}

	flips := nvm.BitDistance(line.cells, next)
	copy(line.cells, next)
	copy(line.plain, newPlain)
	return flips
}

type oracleSECRET struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	lines map[uint64]*oracleSECRETLine
}

type oracleSECRETLine struct {
	plain    []byte
	cells    []byte
	writes   int
	modified []bool
	zeroFlag []bool
}

func (d *oracleSECRET) Name() string { return "SECRET" }

func (d *oracleSECRET) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := d.lines[loc]
	if line == nil {
		line = &oracleSECRETLine{
			plain:    make([]byte, config.LineSize),
			cells:    make([]byte, config.LineSize),
			modified: make([]bool, DEUCEWordsPerLine),
			zeroFlag: make([]bool, DEUCEWordsPerLine),
		}
		d.lines[loc] = line
	}

	wordZero := func(p []byte, w int) bool {
		return p[w*DEUCEWordBytes] == 0 && p[w*DEUCEWordBytes+1] == 0
	}

	for w := 0; w < DEUCEWordsPerLine; w++ {
		changed := false
		for b := 0; b < DEUCEWordBytes; b++ {
			if newPlain[w*DEUCEWordBytes+b] != line.plain[w*DEUCEWordBytes+b] {
				changed = true
				break
			}
		}
		if changed && !wordZero(newPlain, w) {
			line.modified[w] = true
		}
	}
	line.writes++
	ctr := d.ctrs.Bump(loc)

	next := make([]byte, config.LineSize)
	var pad [config.LineSize]byte
	d.enc.Pad(pad[:], loc, ctr)
	epoch := line.writes%DEUCEEpoch == 0
	if epoch {
		for w := 0; w < DEUCEWordsPerLine; w++ {
			line.modified[w] = false
		}
	}
	copy(next, line.cells)
	for w := 0; w < DEUCEWordsPerLine; w++ {
		z := wordZero(newPlain, w)
		switch {
		case z:
			line.zeroFlag[w] = true
		case epoch || line.modified[w]:
			line.zeroFlag[w] = false
			for b := 0; b < DEUCEWordBytes; b++ {
				i := w*DEUCEWordBytes + b
				next[i] = newPlain[i] ^ pad[i]
			}
		}
	}

	flips := nvm.BitDistance(line.cells, next)
	for w := 0; w < DEUCEWordsPerLine; w++ {
		was := wordZero(line.plain, w)
		is := wordZero(newPlain, w)
		if was != is {
			flips++
		}
	}
	copy(line.cells, next)
	copy(line.plain, newPlain)
	return flips
}

// newOracleModels returns the four oracle models, each with its own engine
// and counters, in NewBitModels' order.
func newOracleModels(lines uint64) [4]BitModel {
	enc := func() *cme.Engine { return cme.MustNewEngine(baselineKey) }
	return [4]BitModel{
		&oracleDCW{enc: enc(), ctrs: cme.NewCounterStore(lines), cells: map[uint64][]byte{}},
		&oracleFNW{enc: enc(), ctrs: cme.NewCounterStore(lines), cells: map[uint64]*oracleFNWLine{}},
		&oracleDEUCE{enc: enc(), ctrs: cme.NewCounterStore(lines), lines: map[uint64]*oracleDEUCELine{}},
		&oracleSECRET{enc: enc(), ctrs: cme.NewCounterStore(lines), lines: map[uint64]*oracleSECRETLine{}},
	}
}

// newLoneModels returns the four models, each with its own engine: each is
// taken from a set of its own.
func newLoneModels(lines uint64) [4]BitModel {
	return [4]BitModel{NewBitModels(lines)[0], NewBitModels(lines)[1], NewBitModels(lines)[2], NewBitModels(lines)[3]}
}

// bitProgramLines are the line addresses a program writes: two neighbours,
// and two more that share the first one's slot in the engine's
// direct-mapped pad memo (1024 slots), so pads of different lines evict one
// another. bitProgramBound is the models' line count.
var bitProgramLines = [...]uint64{0, 1, 1024, 3072}

const bitProgramBound = 4096

// maxBitWrites bounds the writes one input decodes into: about 64 writes
// per line, 16 DEUCE epochs.
const maxBitWrites = 256

// bitWrite is one line write of a program.
type bitWrite struct {
	loc  uint64
	data []byte
}

// Kinds of write in a program, the op byte's low three bits.
const (
	opFresh    = iota // every byte new
	opSparse          // a few words rewritten (possibly to zero)
	opZeroWord        // a few words zeroed
	opZeroLine        // the whole line zeroed
	opRepeat          // the line's current content again
	opCopy            // another line's current content: a duplicate
	opHalfZero        // every word either zeroed or given a new non-zero value
	opBitFlip         // one bit of one byte flipped
	nBitOps
)

// decodeBitProgram decodes data into a program of at most maxBitWrites
// writes over bitProgramLines. Lines start zero, as the models' cells do.
// The first byte seeds the content generator; each write is two bytes, an op
// byte (kind in the low three bits, line in the next two) and a parameter
// byte (word count, source line or bit).
func decodeBitProgram(data []byte) []bitWrite {
	if len(data) == 0 {
		return nil
	}
	src := rng.New(uint64(data[0]))
	data = data[1:]
	var cur [len(bitProgramLines)][]byte
	for i := range cur {
		cur[i] = make([]byte, config.LineSize)
	}
	randWord := func() int { return src.Intn(DEUCEWordsPerLine) * DEUCEWordBytes }
	var prog []bitWrite
	for len(data) >= 2 && len(prog) < maxBitWrites {
		op, param := data[0], data[1]
		data = data[2:]
		li := int(op>>3) % len(cur)
		line := slices.Clone(cur[li])
		words := 1 + int(param%8)
		switch op % nBitOps {
		case opFresh:
			src.Fill(line)
		case opSparse:
			for k := 0; k < words; k++ {
				binary.LittleEndian.PutUint16(line[randWord():], uint16(src.Uint64()))
			}
		case opZeroWord:
			for k := 0; k < words; k++ {
				binary.LittleEndian.PutUint16(line[randWord():], 0)
			}
		case opZeroLine:
			clear(line)
		case opRepeat:
		case opCopy:
			copy(line, cur[int(param)%len(cur)])
		case opHalfZero:
			for i := 0; i < config.LineSize; i += DEUCEWordBytes {
				v := uint16(src.Uint64()) | 1
				if src.Bool(0.5) {
					v = 0
				}
				binary.LittleEndian.PutUint16(line[i:], v)
			}
		case opBitFlip:
			line[src.Intn(config.LineSize)] ^= 1 << (param % 8)
		}
		cur[li] = line
		prog = append(prog, bitWrite{loc: bitProgramLines[li], data: line})
	}
	return prog
}

// runBitProgram runs the program data decodes into through the oracle and
// three arrangements of the models, and fails t at the first flip count that
// differs from the oracle's: each model on its own engine; a NewBitModels
// set written in lockstep, every model taking each write in turn; and a
// second set written out of lockstep, each model taking the writes in
// program order but the four interleaved by a draw, so one model runs ahead
// of another by many writes and a pad it asks for may have been evicted from
// the shared memo, or may sit there under a newer counter.
func runBitProgram(t *testing.T, data []byte) {
	t.Helper()
	prog := decodeBitProgram(data)
	if len(prog) == 0 {
		return
	}
	oracle := newOracleModels(bitProgramBound)
	lone := newLoneModels(bitProgramBound)
	shared := NewBitModels(bitProgramBound)
	var want [4][]int
	for step, wr := range prog {
		for mi, o := range oracle {
			flips := o.Write(wr.loc, wr.data)
			want[mi] = append(want[mi], flips)
			if got := lone[mi].Write(wr.loc, wr.data); got != flips {
				t.Fatalf("write %d (line %d): lone %s flips %d, oracle %d", step, wr.loc, o.Name(), got, flips)
			}
			if got := shared[mi].Write(wr.loc, wr.data); got != flips {
				t.Fatalf("write %d (line %d): shared-engine %s flips %d, oracle %d", step, wr.loc, o.Name(), got, flips)
			}
		}
	}

	loose := NewBitModels(bitProgramBound)
	pick := rng.New(uint64(len(data)) ^ uint64(data[0])<<8)
	var done [4]int
	for left := 4 * len(prog); left > 0; left-- {
		mi := pick.Intn(4)
		for done[mi] == len(prog) {
			mi = (mi + 1) % 4
		}
		step := done[mi]
		wr := prog[step]
		if got := loose[mi].Write(wr.loc, wr.data); got != want[mi][step] {
			t.Fatalf("write %d (line %d), out of lockstep: %s flips %d, oracle %d",
				step, wr.loc, loose[mi].Name(), got, want[mi][step])
		}
		done[mi]++
	}
}

// bitProgram encodes a random program of n writes for runBitProgram.
func bitProgram(src *rng.Source, n int) []byte {
	data := make([]byte, 1+2*n)
	src.Fill(data)
	return data
}

// TestBitModelsMatchOracle runs random programs of every kind of write
// through the models and the oracle, most of them long enough to cross
// several DEUCE epochs on every line.
func TestBitModelsMatchOracle(t *testing.T) {
	src := rng.New(19)
	programs := 40
	if testing.Short() {
		programs = 8
	}
	for p := 0; p < programs; p++ {
		n := 8 + src.Intn(maxBitWrites)
		runBitProgram(t, bitProgram(src, n))
	}
}

// TestBitProgramCoverage checks that a full-length program of the kind
// TestBitModelsMatchOracle runs reaches what the models branch on: every
// line written across at least eight DEUCE epochs, all-zero lines, and
// copies of another line's non-zero content.
func TestBitProgramCoverage(t *testing.T) {
	prog := decodeBitProgram(bitProgram(rng.New(19), maxBitWrites))
	if len(prog) != maxBitWrites {
		t.Fatalf("program of %d writes, want %d", len(prog), maxBitWrites)
	}
	perLine := map[uint64]int{}
	zeroLines, copies := 0, 0
	for i, wr := range prog {
		perLine[wr.loc]++
		if config.IsZeroLine(wr.data) {
			zeroLines++
		}
		for _, other := range prog[:i] {
			if other.loc != wr.loc && !config.IsZeroLine(wr.data) && slices.Equal(other.data, wr.data) {
				copies++
				break
			}
		}
	}
	for _, loc := range bitProgramLines {
		if perLine[loc] < 8*DEUCEEpoch {
			t.Errorf("line %d written %d times, want at least %d", loc, perLine[loc], 8*DEUCEEpoch)
		}
	}
	if zeroLines == 0 || copies == 0 {
		t.Errorf("zero-line writes %d, non-zero duplicates %d: want both", zeroLines, copies)
	}
}

// FuzzBitModels runs arbitrary programs through runBitProgram.
func FuzzBitModels(f *testing.F) {
	src := rng.New(20)
	for _, n := range []int{4, 64, maxBitWrites} {
		f.Add(bitProgram(src, n))
	}
	f.Fuzz(runBitProgram)
}

// TestBitModelWriteAllocations pins a write to a line written before at zero
// allocations for every model, alone and in a shared set: the scratch lines
// are struct fields and the line's state was allocated on its first write.
// The writes cycle through sparse, zero and epoch-crossing updates.
func TestBitModelWriteAllocations(t *testing.T) {
	shared := NewBitModels(64)
	lone := newLoneModels(64)
	line := make([]byte, config.LineSize)
	rng.New(21).Fill(line)
	for _, m := range append(shared[:], lone[:]...) {
		m.Write(9, line)
		step := 0
		n := testing.AllocsPerRun(100, func() {
			line[step%config.LineSize] ^= byte(step)
			if step%5 == 0 {
				clear(line[:64])
			}
			step++
			m.Write(9, line)
		})
		if n != 0 {
			t.Errorf("%s: %v allocations per write to a written line, want 0", m.Name(), n)
		}
	}
}

// TestBitModelFirstWriteAllocations bounds first writes: each model claims
// a line's state from a chunk of stateChunk, so writing 4096 fresh lines
// costs each model its chunks, the logarithmic growth of its two
// address-indexed tables (state and counters) and its engine's pad memo:
// fewer than one malloc per 32 lines, not one per line.
func TestBitModelFirstWriteAllocations(t *testing.T) {
	const lines = 4096
	line := make([]byte, config.LineSize)
	rng.New(22).Fill(line)
	for _, m := range newLoneModels(lines) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for loc := uint64(0); loc < lines; loc++ {
			m.Write(loc, line)
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.Mallocs-before.Mallocs, uint64(lines/32); got > limit {
			t.Errorf("%s: %d mallocs over %d first writes, want at most %d", m.Name(), got, lines, limit)
		}
	}
}

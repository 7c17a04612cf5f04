package baseline

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"

	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/dense"
	"dewrite/internal/nvm"
)

// BitModel is a bit-level write-reduction technique evaluated in Figure 13.
// A model receives the plaintext write stream (per storage line) and reports
// how many NVM cells actually flip for each write, operating on the real
// ciphertexts its encryption scheme would store — so the diffusion property
// is measured, not assumed.
//
// A model keeps its scratch lines in its own struct and each line's state in
// a lineStates table, so a write to a line written before allocates nothing
// and a first write allocates once per stateChunk lines.
type BitModel interface {
	// Name returns the technique's display name.
	Name() string
	// Write applies one line write and returns the number of flipped cells.
	Write(loc uint64, newPlain []byte) int
}

// NewBitModels returns DCW, FNW, DEUCE and SECRET, in that order, over one
// shared encryption engine: the four models Figure 13 stacks under each
// write-elimination variant. Written with the same line sequence, the four
// bump their counters in step and request the same (line, counter) pad in
// turn, so the first model's request fills the engine's pad memo and the
// other three hit it. A hit returns exactly the bytes a generation would (a
// pad is a pure function of key, address and counter), so the models' flip
// counts do not depend on the sharing, nor on the order the models are
// written in; only the hit rate does. The engine is not safe for concurrent
// use, so the four models must be written from one goroutine.
func NewBitModels(lines uint64) [4]BitModel {
	enc := cme.MustNewEngine(baselineKey)
	return [4]BitModel{newDCW(enc, lines), newFNW(enc, lines), newDEUCE(enc, lines), newSECRET(enc, lines)}
}

func checkModelLine(data []byte) {
	if len(data) != config.LineSize {
		panic(fmt.Sprintf("baseline: bit-model line of %d bytes", len(data)))
	}
}

// stateChunk is how many lines' state a lineStates table allocates at once.
const stateChunk = 64

// lineStates is a table of per-line state indexed by line address
// (internal/dense), growing up to lines. A line's state is zero until its
// first write, which takes the next unclaimed slot of a chunk of stateChunk.
type lineStates[T any] struct {
	table []*T
	chunk []T // unclaimed slots
	lines uint64
}

// get returns loc's state, claiming a zero slot on the line's first write.
func (s *lineStates[T]) get(loc uint64) *T {
	s.table = dense.Grow(s.table, loc, s.lines)
	st := s.table[loc]
	if st == nil {
		if len(s.chunk) == 0 {
			s.chunk = make([]T, stateChunk)
		}
		st, s.chunk = &s.chunk[0], s.chunk[1:]
		s.table[loc] = st
	}
	return st
}

// DCW models Data Comparison Write over counter-mode encryption: the full
// line is re-encrypted on every write (fresh counter), and only the cells
// that differ from the stored ciphertext are programmed. With encryption's
// diffusion, ~50 % of the cells differ regardless of how small the plaintext
// change was — the paper's motivating observation.
type DCW struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	cells lineStates[[config.LineSize]byte] // stored ciphertext
	ct    [config.LineSize]byte             // scratch: the new ciphertext
}

// NewDCW returns a DCW model of line addresses below lines, with its own
// encryption state.
func NewDCW(lines uint64) *DCW { return newDCW(cme.MustNewEngine(baselineKey), lines) }

func newDCW(enc *cme.Engine, lines uint64) *DCW {
	return &DCW{enc: enc, ctrs: cme.NewCounterStore(lines), cells: lineStates[[config.LineSize]byte]{lines: lines}}
}

// Name implements BitModel.
func (d *DCW) Name() string { return "DCW" }

// Write implements BitModel.
func (d *DCW) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	cells := d.cells.get(loc)
	d.enc.EncryptLine(d.ct[:], newPlain, loc, d.ctrs.Bump(loc))
	flips := nvm.BitDistance(cells[:], d.ct[:])
	*cells = d.ct
	return flips
}

// FNWWordBits is FNW's inversion granularity.
const FNWWordBits = 32

// FNW models Flip-N-Write over counter-mode encryption: the ciphertext is
// partitioned into 32-bit words, each with a flip flag; a word is stored
// inverted when that flips fewer cells, bounding flips per word to half plus
// the flag. Against encrypted (effectively random) data this lands near the
// paper's 43 %.
type FNW struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	cells lineStates[fnwLine]
	ct    [config.LineSize]byte // scratch: the new ciphertext
}

type fnwLine struct {
	words [FNWWordsPerLine]uint32
	flags [FNWWordsPerLine]bool
}

// FNWWordsPerLine is the number of inversion words per 256 B line.
const FNWWordsPerLine = config.LineBits / FNWWordBits

func newFNW(enc *cme.Engine, lines uint64) *FNW {
	return &FNW{enc: enc, ctrs: cme.NewCounterStore(lines), cells: lineStates[fnwLine]{lines: lines}}
}

// Name implements BitModel.
func (f *FNW) Name() string { return "FNW" }

// Write implements BitModel.
func (f *FNW) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := f.cells.get(loc)
	f.enc.EncryptLine(f.ct[:], newPlain, loc, f.ctrs.Bump(loc))
	flips := 0
	for w := range line.words {
		next := binary.LittleEndian.Uint32(f.ct[4*w:])
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

func flagCost(old, new bool) int {
	if old != new {
		return 1
	}
	return 0
}

// DEUCEEpoch is the number of writes between full re-encryptions.
const DEUCEEpoch = 4

// DEUCEWordBytes is DEUCE's re-encryption granularity (2-byte words).
const DEUCEWordBytes = 2

// DEUCEWordsPerLine is the number of DEUCE words per line.
const DEUCEWordsPerLine = config.LineSize / DEUCEWordBytes

// partialLine is the per-line state of the partial re-encryption models,
// DEUCE and SECRET.
type partialLine struct {
	plain    [config.LineSize]byte
	cells    [config.LineSize]byte
	writes   int
	modified [DEUCEWordsPerLine]bool // since epoch start, per word
}

// deuceWord returns DEUCE word w of a line (DEUCEWordBytes = 2 bytes).
func deuceWord(line []byte, w int) uint16 {
	return binary.LittleEndian.Uint16(line[w*DEUCEWordBytes:])
}

// DEUCE models the dual-counter partial re-encryption scheme: within an
// epoch only the words modified since the epoch began are re-encrypted (with
// the current counter); untouched words keep their epoch ciphertext and flip
// no cells. Every DEUCEEpoch-th write the whole line is re-encrypted under a
// fresh leading counter.
type DEUCE struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	state lineStates[partialLine]
	pad   [config.LineSize]byte // scratch: this write's one-time pad
	next  [config.LineSize]byte // scratch: the cells after this write
}

func newDEUCE(enc *cme.Engine, lines uint64) *DEUCE {
	return &DEUCE{enc: enc, ctrs: cme.NewCounterStore(lines), state: lineStates[partialLine]{lines: lines}}
}

// Name implements BitModel.
func (d *DEUCE) Name() string { return "DEUCE" }

// Write implements BitModel.
func (d *DEUCE) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := d.state.get(loc)
	line.writes++
	d.enc.Pad(d.pad[:], loc, d.ctrs.Bump(loc))
	if line.writes%DEUCEEpoch == 0 {
		// Epoch boundary: full re-encryption under the fresh leading
		// counter, and the modified-word set starts empty.
		subtle.XORBytes(d.next[:], newPlain, d.pad[:])
		line.modified = [DEUCEWordsPerLine]bool{}
	} else {
		// Partial re-encryption: the words modified since the epoch began
		// (this write's included) under the current counter; untouched
		// words keep the epoch ciphertext.
		d.next = line.cells
		for w := range line.modified {
			if !line.modified[w] && deuceWord(newPlain, w) == deuceWord(line.plain[:], w) {
				continue
			}
			line.modified[w] = true
			i := w * DEUCEWordBytes
			d.next[i] = newPlain[i] ^ d.pad[i]
			d.next[i+1] = newPlain[i+1] ^ d.pad[i+1]
		}
	}
	flips := nvm.BitDistance(line.cells[:], d.next[:])
	line.cells = d.next
	copy(line.plain[:], newPlain)
	return flips
}

// SECRET models the scheme of Swami et al. (the paper's Section V): DEUCE's
// partial re-encryption plus zero-word elision. Words that are zero in the
// plaintext and were zero before are not re-encrypted at all (their cells
// keep the previous contents and a per-word zero flag serves reads), which
// removes the re-encryption churn DEUCE pays for zero-dominated data. A
// flag's state is whether the stored plaintext word is zero, so the model
// keeps no flags of its own.
type SECRET struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	state lineStates[partialLine] // modified counts non-zero words only
	pad   [config.LineSize]byte   // scratch: this write's one-time pad
	next  [config.LineSize]byte   // scratch: the cells after this write
}

func newSECRET(enc *cme.Engine, lines uint64) *SECRET {
	return &SECRET{enc: enc, ctrs: cme.NewCounterStore(lines), state: lineStates[partialLine]{lines: lines}}
}

// Name implements BitModel.
func (d *SECRET) Name() string { return "SECRET" }

// Write implements BitModel.
func (d *SECRET) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := d.state.get(loc)
	line.writes++
	// An epoch boundary re-encrypts every non-zero word and empties the
	// modified-word set.
	epoch := line.writes%DEUCEEpoch == 0
	d.enc.Pad(d.pad[:], loc, d.ctrs.Bump(loc))
	d.next = line.cells
	flagFlips := 0
	for w := range line.modified {
		was, now := deuceWord(line.plain[:], w), deuceWord(newPlain, w)
		if (was == 0) != (now == 0) {
			flagFlips++ // the word's zero flag flips: one cell
		}
		if now == 0 {
			// Zero elision: flag only, cells untouched.
			line.modified[w] = line.modified[w] && !epoch
			continue
		}
		modified := line.modified[w] || now != was
		line.modified[w] = modified && !epoch
		if epoch || modified {
			i := w * DEUCEWordBytes
			d.next[i] = newPlain[i] ^ d.pad[i]
			d.next[i+1] = newPlain[i+1] ^ d.pad[i+1]
		}
	}
	flips := nvm.BitDistance(line.cells[:], d.next[:]) + flagFlips
	line.cells = d.next
	copy(line.plain[:], newPlain)
	return flips
}

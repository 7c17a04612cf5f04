package baseline

import (
	"fmt"
	"math/bits"

	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/nvm"
)

// BitModel is a bit-level write-reduction technique evaluated in Figure 13.
// A model receives the plaintext write stream (per storage line) and reports
// how many NVM cells actually flip for each write, operating on the real
// ciphertexts its encryption scheme would store — so the diffusion property
// is measured, not assumed.
type BitModel interface {
	// Name returns the technique's display name.
	Name() string
	// Write applies one line write and returns the number of flipped cells.
	Write(loc uint64, newPlain []byte) int
}

func checkModelLine(data []byte) {
	if len(data) != config.LineSize {
		panic(fmt.Sprintf("baseline: bit-model line of %d bytes", len(data)))
	}
}

// DCW models Data Comparison Write over counter-mode encryption: the full
// line is re-encrypted on every write (fresh counter), and only the cells
// that differ from the stored ciphertext are programmed. With encryption's
// diffusion, ~50 % of the cells differ regardless of how small the plaintext
// change was — the paper's motivating observation.
type DCW struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	cells map[uint64][]byte
}

// NewDCW returns a DCW model of line addresses below lines, with its own
// encryption state.
func NewDCW(lines uint64) *DCW {
	return &DCW{
		enc:   cme.MustNewEngine(baselineKey),
		ctrs:  cme.NewCounterStore(lines),
		cells: make(map[uint64][]byte),
	}
}

// Name implements BitModel.
func (d *DCW) Name() string { return "DCW" }

// Write implements BitModel.
func (d *DCW) Write(loc uint64, newPlain []byte) int {
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
	cells map[uint64]*fnwLine
}

type fnwLine struct {
	words []uint32
	flags []bool
}

// FNWWordsPerLine is the number of inversion words per 256 B line.
const FNWWordsPerLine = config.LineBits / FNWWordBits

// NewFNW returns an FNW model of line addresses below lines, with its own
// encryption state.
func NewFNW(lines uint64) *FNW {
	return &FNW{
		enc:   cme.MustNewEngine(baselineKey),
		ctrs:  cme.NewCounterStore(lines),
		cells: make(map[uint64]*fnwLine),
	}
}

// Name implements BitModel.
func (f *FNW) Name() string { return "FNW" }

// Write implements BitModel.
func (f *FNW) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	ct := make([]byte, config.LineSize)
	f.enc.EncryptLine(ct, newPlain, loc, f.ctrs.Bump(loc))

	line := f.cells[loc]
	if line == nil {
		line = &fnwLine{
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

// DEUCE models the dual-counter partial re-encryption scheme: within an
// epoch only the words modified since the epoch began are re-encrypted (with
// the current counter); untouched words keep their epoch ciphertext and flip
// no cells. Every DEUCEEpoch-th write the whole line is re-encrypted under a
// fresh leading counter.
type DEUCE struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	lines map[uint64]*deuceLine
}

type deuceLine struct {
	plain    []byte
	cells    []byte
	epochCtr uint64
	writes   int
	modified []bool // since epoch start, per word
}

// NewDEUCE returns a DEUCE model of line addresses below lines, with its own
// encryption state.
func NewDEUCE(lines uint64) *DEUCE {
	return &DEUCE{
		enc:   cme.MustNewEngine(baselineKey),
		ctrs:  cme.NewCounterStore(lines),
		lines: make(map[uint64]*deuceLine),
	}
}

// Name implements BitModel.
func (d *DEUCE) Name() string { return "DEUCE" }

// Write implements BitModel.
func (d *DEUCE) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := d.lines[loc]
	if line == nil {
		line = &deuceLine{
			plain:    make([]byte, config.LineSize),
			cells:    make([]byte, config.LineSize),
			modified: make([]bool, DEUCEWordsPerLine),
		}
		d.lines[loc] = line
	}

	// Accumulate the modified-word set since the epoch began.
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
		// Epoch boundary: full re-encryption under the fresh leading counter.
		line.epochCtr = ctr
		d.enc.Pad(pad[:], loc, ctr)
		for i := range next {
			next[i] = newPlain[i] ^ pad[i]
		}
		for w := range line.modified {
			line.modified[w] = false
		}
	} else {
		// Partial re-encryption: modified words under the current counter,
		// untouched words keep the epoch ciphertext.
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

// SECRET models the scheme of Swami et al. (the paper's Section V): DEUCE's
// partial re-encryption plus zero-word elision. Words that are zero in the
// plaintext and were zero before are not re-encrypted at all (their cells
// keep the previous contents and a per-word zero flag serves reads), which
// removes the re-encryption churn DEUCE pays for zero-dominated data.
type SECRET struct {
	enc   *cme.Engine
	ctrs  *cme.CounterStore
	lines map[uint64]*secretLine
}

type secretLine struct {
	plain    []byte
	cells    []byte
	writes   int
	modified []bool // non-zero modified words since epoch start
	zeroFlag []bool // word currently elided as zero
}

// NewSECRET returns a SECRET model of line addresses below lines, with its own
// encryption state.
func NewSECRET(lines uint64) *SECRET {
	return &SECRET{
		enc:   cme.MustNewEngine(baselineKey),
		ctrs:  cme.NewCounterStore(lines),
		lines: make(map[uint64]*secretLine),
	}
}

// Name implements BitModel.
func (d *SECRET) Name() string { return "SECRET" }

// Write implements BitModel.
func (d *SECRET) Write(loc uint64, newPlain []byte) int {
	checkModelLine(newPlain)
	line := d.lines[loc]
	if line == nil {
		line = &secretLine{
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

	// Accumulate modified non-zero words since the epoch began.
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
		// Full re-encryption of the non-zero words; zero words stay elided.
		for w := 0; w < DEUCEWordsPerLine; w++ {
			line.modified[w] = false
		}
	}
	copy(next, line.cells)
	for w := 0; w < DEUCEWordsPerLine; w++ {
		z := wordZero(newPlain, w)
		switch {
		case z:
			// Zero elision: flag flip only, cells untouched.
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
	// Zero-flag bit flips: one cell per word whose flag changed.
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

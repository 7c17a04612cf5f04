package baseline

import (
	"bytes"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

func smallSecure() *SecureNVM {
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	return NewSecureNVM(2048, cfg)
}

func fillLine(src *rng.Source) []byte {
	b := make([]byte, config.LineSize)
	src.Fill(b)
	return b
}

func TestSecureNVMRoundTrip(t *testing.T) {
	s := smallSecure()
	src := rng.New(1)
	line := fillLine(src)
	done := s.Write(0, 9, line)
	got, _ := s.Read(done, 9)
	if !bytes.Equal(got, line) {
		t.Fatal("round trip failed")
	}
}

func TestSecureNVMStoresCiphertext(t *testing.T) {
	s := smallSecure()
	src := rng.New(2)
	line := fillLine(src)
	s.Write(0, 4, line)
	if bytes.Equal(s.Device().Peek(4), line) {
		t.Fatal("plaintext in NVM")
	}
}

func TestSecureNVMWriteAlwaysHitsDevice(t *testing.T) {
	s := smallSecure()
	src := rng.New(3)
	line := fillLine(src)
	var now units.Time
	for i := 0; i < 10; i++ {
		now = s.Write(now, 7, line) // same content rewritten: no dedup here
	}
	if got := s.Device().Stats().Writes; got != 10 {
		t.Fatalf("device writes = %d, want 10 (no elimination in baseline)", got)
	}
}

func TestSecureNVMWriteLatencyIncludesAES(t *testing.T) {
	s := smallSecure()
	src := rng.New(4)
	done := s.Write(0, 1, fillLine(src))
	// counter-cache miss (cold) + AES + NVM write ≥ 96 + 300 ns.
	if lat := done.Sub(0); lat < 396*units.Nanosecond {
		t.Fatalf("write latency = %v, want ≥ 396ns", lat)
	}
	// Warm counter path: second write to a nearby line.
	start := done
	done2 := s.Write(start, 2, fillLine(src))
	lat := done2.Sub(start)
	want := units.Duration(96+300)*units.Nanosecond + config.DefaultTiming().MetaCache
	if lat != want {
		t.Fatalf("warm write latency = %v, want %v", lat, want)
	}
}

func TestSecureNVMReadOverlapsOTP(t *testing.T) {
	s := smallSecure()
	src := rng.New(5)
	now := s.Write(0, 1, fillLine(src))
	_, done := s.Read(now, 1)
	lat := done.Sub(now)
	// Warm counters: max(75ns read, 96ns OTP) + XOR + cache access ≈ 96ns+.
	upper := 100 * units.Nanosecond
	if lat > upper {
		t.Fatalf("read latency = %v, want ≤ %v (OTP must overlap read)", lat, upper)
	}
}

func TestSecureNVMRejectsBadInput(t *testing.T) {
	s := smallSecure()
	for name, f := range map[string]func(){
		"short":  func() { s.Write(0, 0, make([]byte, 8)) },
		"oob":    func() { s.Write(0, 1<<40, make([]byte, config.LineSize)) },
		"zeroLn": func() { NewSecureNVM(0, config.Default()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestShredderEliminatesZeroLines(t *testing.T) {
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	sh := NewShredder(2048, cfg)
	zero := make([]byte, config.LineSize)
	src := rng.New(6)
	var now units.Time
	now = sh.Write(now, 1, zero)
	now = sh.Write(now, 2, fillLine(src))
	now = sh.Write(now, 3, zero)
	if sh.Eliminated() != 2 {
		t.Fatalf("Eliminated = %d, want 2", sh.Eliminated())
	}
	if got := sh.Inner().Device().Stats().Writes; got != 1 {
		t.Fatalf("device writes = %d, want 1", got)
	}
	if wr := sh.WriteReduction(); wr != 2.0/3.0 {
		t.Fatalf("WriteReduction = %v", wr)
	}
	got, _ := sh.Read(now, 1)
	if !config.IsZeroLine(got) {
		t.Fatal("shredded line did not read zero")
	}
}

func TestShredderOverwriteClearsShred(t *testing.T) {
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	sh := NewShredder(2048, cfg)
	src := rng.New(7)
	zero := make([]byte, config.LineSize)
	line := fillLine(src)
	var now units.Time
	now = sh.Write(now, 5, zero)
	now = sh.Write(now, 5, line)
	got, _ := sh.Read(now, 5)
	if !bytes.Equal(got, line) {
		t.Fatal("overwrite of shredded line lost data")
	}
}

func TestDCWFlipsAboutHalfOnRewrite(t *testing.T) {
	d := NewDCW(8)
	src := rng.New(8)
	line := fillLine(src)
	d.Write(0, line)
	// Rewrite with one modified byte: diffusion should flip ~50 %.
	line[0] ^= 1
	flips := d.Write(0, line)
	frac := float64(flips) / config.LineBits
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("DCW flip fraction = %.3f, want ~0.5", frac)
	}
}

func TestFNWBoundsFlipsBelowDCW(t *testing.T) {
	dcw, fnw := NewDCW(8), NewFNW(8)
	src := rng.New(9)
	line := fillLine(src)
	dcw.Write(0, line)
	fnw.Write(0, line)
	var dcwTotal, fnwTotal int
	const n = 200
	for i := 0; i < n; i++ {
		line[src.Intn(config.LineSize)] ^= byte(1 + src.Intn(255))
		dcwTotal += dcw.Write(0, line)
		fnwTotal += fnw.Write(0, line)
	}
	dcwFrac := float64(dcwTotal) / float64(n*config.LineBits)
	fnwFrac := float64(fnwTotal) / float64(n*config.LineBits)
	if fnwFrac >= dcwFrac {
		t.Fatalf("FNW (%.3f) not below DCW (%.3f)", fnwFrac, dcwFrac)
	}
	// Paper: DCW ≈ 50 %, FNW ≈ 43 %.
	if dcwFrac < 0.47 || dcwFrac > 0.53 {
		t.Fatalf("DCW fraction = %.3f, want ~0.5", dcwFrac)
	}
	if fnwFrac < 0.38 || fnwFrac > 0.46 {
		t.Fatalf("FNW fraction = %.3f, want ~0.42", fnwFrac)
	}
}

func TestFNWNeverExceedsHalfPlusFlagsPerWord(t *testing.T) {
	f := NewFNW(8)
	src := rng.New(10)
	line := fillLine(src)
	for i := 0; i < 50; i++ {
		src.Fill(line)
		flips := f.Write(3, line)
		// Per word at most 16 data flips (inversion bound) + 1 flag flip.
		max := FNWWordsPerLine * (FNWWordBits/2 + 1)
		if flips > max {
			t.Fatalf("FNW flips %d exceed bound %d", flips, max)
		}
	}
}

func TestDEUCEPartialRewriteCheaperThanDCW(t *testing.T) {
	deuce, dcw := NewDEUCE(8), NewDCW(8)
	src := rng.New(11)
	line := fillLine(src)
	deuce.Write(0, line)
	dcw.Write(0, line)
	var deuceTotal, dcwTotal int
	const n = 400
	for i := 0; i < n; i++ {
		// Modify ~3 words (realistic sparse update).
		for k := 0; k < 3; k++ {
			w := src.Intn(DEUCEWordsPerLine)
			line[w*2] ^= byte(1 + src.Intn(255))
		}
		deuceTotal += deuce.Write(0, line)
		dcwTotal += dcw.Write(0, line)
	}
	deuceFrac := float64(deuceTotal) / float64(n*config.LineBits)
	dcwFrac := float64(dcwTotal) / float64(n*config.LineBits)
	if deuceFrac >= dcwFrac/1.5 {
		t.Fatalf("DEUCE (%.3f) should be well below DCW (%.3f) on sparse updates", deuceFrac, dcwFrac)
	}
}

func TestDEUCEUntouchedWordsFlipNothingWithinEpoch(t *testing.T) {
	d := NewDEUCE(8)
	line := make([]byte, config.LineSize)
	d.Write(0, line) // write 1
	// Write 2: modify exactly one word. Untouched words must contribute 0.
	line[0] ^= 0xff
	flips := d.Write(0, line)
	// Only word 0 re-encrypted: at most 16 bits flip.
	if flips > 16 {
		t.Fatalf("flips = %d, want ≤ 16 for a single-word change", flips)
	}
}

func TestDEUCEEpochBoundaryFullReencrypt(t *testing.T) {
	d := NewDEUCE(8)
	line := make([]byte, config.LineSize)
	var flipsPerWrite []int
	for i := 0; i < DEUCEEpoch; i++ {
		line[0] ^= 1 // tiny change each time
		flipsPerWrite = append(flipsPerWrite, d.Write(0, line))
	}
	last := flipsPerWrite[DEUCEEpoch-1]
	// The epoch-boundary write re-encrypts the full line: ~50 % of bits.
	if frac := float64(last) / config.LineBits; frac < 0.4 || frac > 0.6 {
		t.Fatalf("epoch-boundary flip fraction = %.3f, want ~0.5", frac)
	}
	// Mid-epoch writes touch only the modified word.
	if flipsPerWrite[1] > 17 {
		t.Fatalf("mid-epoch flips = %d, want small", flipsPerWrite[1])
	}
}

func TestBitModelNames(t *testing.T) {
	for _, m := range []BitModel{NewDCW(8), NewFNW(8), NewDEUCE(8), NewSECRET(8)} {
		if m.Name() == "" {
			t.Fatal("empty model name")
		}
	}
}

func TestBitModelsRejectShortLines(t *testing.T) {
	for _, m := range []BitModel{NewDCW(8), NewFNW(8), NewDEUCE(8), NewSECRET(8)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", m.Name())
				}
			}()
			m.Write(0, make([]byte, 10))
		}()
	}
}

func TestSECRETBeatsDEUCEOnZeroHeavyData(t *testing.T) {
	secret, deuce := NewSECRET(8), NewDEUCE(8)
	src := rng.New(21)
	// Lines whose updates frequently write zero words (sparse matrices,
	// shredded buffers): SECRET elides them, DEUCE re-encrypts them.
	line := make([]byte, config.LineSize)
	var sTotal, dTotal int
	const n = 300
	for i := 0; i < n; i++ {
		// Rewrite ~16 words: half zero, half random.
		for k := 0; k < 16; k++ {
			w := src.Intn(DEUCEWordsPerLine)
			if k%2 == 0 {
				line[2*w], line[2*w+1] = 0, 0
			} else {
				v := uint16(src.Uint64() | 1)
				line[2*w], line[2*w+1] = byte(v), byte(v>>8)
			}
		}
		sTotal += secret.Write(0, line)
		dTotal += deuce.Write(0, line)
	}
	if sTotal >= dTotal {
		t.Fatalf("SECRET (%d flips) should beat DEUCE (%d) on zero-heavy updates", sTotal, dTotal)
	}
}

func TestSECRETZeroLineNearFree(t *testing.T) {
	s := NewSECRET(8)
	zero := make([]byte, config.LineSize)
	s.Write(0, zero) // first write sets the flags
	var flips int
	for i := 0; i < 8; i++ {
		flips += s.Write(0, zero)
	}
	if flips != 0 {
		t.Fatalf("rewriting the zero line flipped %d cells, want 0", flips)
	}
}

func TestSECRETRejectsShortLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSECRET(8).Write(0, make([]byte, 3))
}

package cme

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"testing"
	"testing/quick"

	"dewrite/internal/config"
	"dewrite/internal/rng"
)

const testKey = "dewrite-test-key"

func testEngine(t testing.TB) *Engine {
	t.Helper()
	return MustNewEngine([]byte(testKey))
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := testEngine(t)
	src := rng.New(1)
	plain := make([]byte, config.LineSize)
	ct := make([]byte, config.LineSize)
	pt := make([]byte, config.LineSize)
	for i := 0; i < 100; i++ {
		src.Fill(plain)
		addr, ctr := src.Uint64(), src.Uint64()>>8
		e.EncryptLine(ct, plain, addr, ctr)
		e.DecryptLine(pt, ct, addr, ctr)
		if !bytes.Equal(pt, plain) {
			t.Fatalf("round trip failed at iteration %d", i)
		}
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	e := testEngine(t)
	plain := make([]byte, config.LineSize)
	ct := make([]byte, config.LineSize)
	e.EncryptLine(ct, plain, 0x1000, 1)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
}

func TestPadUniqueAcrossAddresses(t *testing.T) {
	e := testEngine(t)
	p1 := make([]byte, config.LineSize)
	p2 := make([]byte, config.LineSize)
	e.Pad(p1, 0x100, 5)
	e.Pad(p2, 0x200, 5)
	if bytes.Equal(p1, p2) {
		t.Fatal("same pad for different addresses")
	}
}

func TestPadUniqueAcrossCounters(t *testing.T) {
	e := testEngine(t)
	p1 := make([]byte, config.LineSize)
	p2 := make([]byte, config.LineSize)
	e.Pad(p1, 0x100, 5)
	e.Pad(p2, 0x100, 6)
	if bytes.Equal(p1, p2) {
		t.Fatal("same pad for different counters")
	}
}

func TestPadBlocksDistinctWithinLine(t *testing.T) {
	e := testEngine(t)
	pad := make([]byte, config.LineSize)
	e.Pad(pad, 42, 7)
	for i := 0; i < config.AESBlocksPerLine; i++ {
		for j := i + 1; j < config.AESBlocksPerLine; j++ {
			if bytes.Equal(pad[i*16:(i+1)*16], pad[j*16:(j+1)*16]) {
				t.Fatalf("pad blocks %d and %d identical", i, j)
			}
		}
	}
}

func TestPadDeterministic(t *testing.T) {
	e := testEngine(t)
	p1 := make([]byte, config.LineSize)
	p2 := make([]byte, config.LineSize)
	e.Pad(p1, 9, 9)
	e.Pad(p2, 9, 9)
	if !bytes.Equal(p1, p2) {
		t.Fatal("pad is not deterministic")
	}
}

func TestDiffusionUnderCounterBump(t *testing.T) {
	// Rewriting the same plaintext with a bumped counter must change about
	// half the ciphertext bits — the effect that defeats DCW/FNW.
	e := testEngine(t)
	src := rng.New(2)
	plain := make([]byte, config.LineSize)
	src.Fill(plain)
	ct1 := make([]byte, config.LineSize)
	ct2 := make([]byte, config.LineSize)
	e.EncryptLine(ct1, plain, 0x40, 1)
	e.EncryptLine(ct2, plain, 0x40, 2)
	flips := 0
	for i := range ct1 {
		flips += bits.OnesCount8(ct1[i] ^ ct2[i])
	}
	frac := float64(flips) / float64(config.LineBits)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("bit-flip fraction %.3f, want ~0.5", frac)
	}
}

func TestDirectEncryptRoundTrip(t *testing.T) {
	e := testEngine(t)
	src := rng.New(3)
	f := func(seed uint64) bool {
		src.Reseed(seed)
		plain := make([]byte, config.LineSize)
		src.Fill(plain)
		ct := make([]byte, config.LineSize)
		pt := make([]byte, config.LineSize)
		e.DirectEncryptLine(ct, plain)
		if bytes.Equal(ct, plain) {
			return false
		}
		e.DirectDecryptLine(pt, ct)
		return bytes.Equal(pt, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInPlaceEncryption(t *testing.T) {
	e := testEngine(t)
	src := rng.New(4)
	line := make([]byte, config.LineSize)
	src.Fill(line)
	orig := append([]byte(nil), line...)
	e.EncryptLine(line, line, 77, 3)
	e.DecryptLine(line, line, 77, 3)
	if !bytes.Equal(line, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestBadLengthsPanic(t *testing.T) {
	e := testEngine(t)
	short := make([]byte, 16)
	full := make([]byte, config.LineSize)
	for name, f := range map[string]func(){
		"pad":     func() { e.Pad(short, 0, 0) },
		"encrypt": func() { e.EncryptLine(full, short, 0, 0) },
		"direct":  func() { e.DirectEncryptLine(short, full) },
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

func TestNewEngineRejectsBadKey(t *testing.T) {
	if _, err := NewEngine(make([]byte, 5)); err == nil {
		t.Fatal("expected error for short key")
	}
}

// TestInvalidKeySize checks that the engine is AES-128 only: crypto/aes
// would accept 24- and 32-byte keys, so the engine refuses them itself.
func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 15, 17, 24, 32} {
		if _, err := NewEngine(make([]byte, n)); err == nil {
			t.Errorf("NewEngine with %d-byte key: no error", n)
		}
	}
}

// TestPadGoldenVector pins the pad bytes for one (key, addr, counter). The
// seed layout it fixes (addr LE 8 B, then counter LE 7 B, then the block
// index) determines every ciphertext the simulator stores, so a change here
// changes the bit-flip counts behind Figure 13 and every report built on
// device contents. The counter's top byte is set and must not matter: the
// seed holds only its low 56 bits.
func TestPadGoldenVector(t *testing.T) {
	const (
		addr    = 0x0123456789abcdef
		counter = 0xa5fedcba98765432
		want    = "caf8ef55fe221de0631e325a0099472ac2b5415228727f4076d79eae632ba833" +
			"6ef51775c815d80467e9154b764f8f8da81bfc16643afad460cff24002ca1a87" +
			"1edeaf66b0aab439d492032372ddb8d5cc076452a306d7f4624bcbabc8662d8d" +
			"68ca63b815c39db88e7ba88f1a82655d50a4e0689c4e55d0e495b898a9266058" +
			"91c1715a5f371c15bd11ddbd10052ccf8bb2083b0a088de867b8d4588bfa5f31" +
			"6a93671b631b7b539e4c6c37f3b1fbc6f12deacdc59bf454165eb2dba092fbf2" +
			"28ee63b118a538c1642605538cab47d9056da14d1b541c9fa8858b789b71cc36" +
			"263b2d8531a7595e39daa4e8f15342567174762ee4d7b2ab15c7ca025358bf60"
	)
	e := testEngine(t)
	pad := make([]byte, config.LineSize)
	for _, ctr := range []uint64{counter, counter & (1<<56 - 1)} {
		e.Pad(pad, addr, ctr)
		if got := hex.EncodeToString(pad); got != want {
			t.Fatalf("counter %#x: pad changed:\n got %s\nwant %s", ctr, got, want)
		}
	}
	// Counter-mode ciphertext is plaintext XOR that pad.
	plain := make([]byte, config.LineSize)
	for i := range plain {
		plain[i] = byte(i)
	}
	ct := make([]byte, config.LineSize)
	e.EncryptLine(ct, plain, addr, counter)
	for i := range ct {
		if ct[i] != plain[i]^pad[i] {
			t.Fatalf("ciphertext byte %d is not plaintext XOR pad", i)
		}
	}
}

// checkDirectFIPS197 pins direct (metadata) encryption to AES-128 block by
// block: the FIPS-197 vector fills every block of a line, which must encrypt
// to the vector's ciphertext and decrypt back in place.
func checkDirectFIPS197(t *testing.T, key, plain, want string) {
	t.Helper()
	k, _ := hex.DecodeString(key)
	block, _ := hex.DecodeString(plain)
	e := MustNewEngine(k)
	line := bytes.Repeat(block, config.AESBlocksPerLine)
	ct := make([]byte, config.LineSize)
	e.DirectEncryptLine(ct, line)
	for b := 0; b < config.LineSize; b += 16 {
		if got := hex.EncodeToString(ct[b : b+16]); got != want {
			t.Fatalf("block %d = %s, want %s", b/16, got, want)
		}
	}
	e.DirectDecryptLine(ct, ct)
	if !bytes.Equal(ct, line) {
		t.Fatal("in-place direct decryption did not invert encryption")
	}
}

// FIPS-197 Appendix B vector.
func TestFIPS197Vector(t *testing.T) {
	checkDirectFIPS197(t, "2b7e151628aed2a6abf7158809cf4f3c",
		"3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32")
}

// FIPS-197 Appendix C.1 vector.
func TestFIPS197AppendixC(t *testing.T) {
	checkDirectFIPS197(t, "000102030405060708090a0b0c0d0e0f",
		"00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a")
}

// TestLineAllocations pins the line paths at zero allocations on caller
// stack buffers. The block cipher is an interface call, so any buffer the
// engine hands it escapes; a regression that passes a caller's line (or a
// pad it declared locally) through moves that buffer to the heap on every
// call, and these pins fail. AllocsPerRun warms up with one uncounted call,
// which is where the engine allocates its pad memo.
func TestLineAllocations(t *testing.T) {
	e := testEngine(t)
	checks := []struct {
		name string
		fn   func()
	}{
		{"EncryptLine", func() {
			var src, dst [config.LineSize]byte
			e.EncryptLine(dst[:], src[:], 7, 3)
		}},
		{"DecryptLine", func() {
			var src, dst [config.LineSize]byte
			e.DecryptLine(dst[:], src[:], 7, 3)
		}},
		{"Pad", func() {
			var pad [config.LineSize]byte
			e.Pad(pad[:], 7, 3)
		}},
	}
	for _, c := range checks {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, avg)
		}
	}
}

var (
	cipherSink cipher.Block
	engineSink *Engine
)

// TestNewEngineAllocations pins construction at the cipher's allocations
// plus the engine itself. The pad memo is allocated on the first pad, not
// here: building a memory (timed as set-up) builds engines, and a serving
// daemon is not ready until every shard's controller is built.
func TestNewEngineAllocations(t *testing.T) {
	key := []byte(testKey)
	cipherAllocs := testing.AllocsPerRun(100, func() { cipherSink, _ = aes.NewCipher(key) })
	if avg := testing.AllocsPerRun(100, func() { engineSink = MustNewEngine(key) }); avg != cipherAllocs+1 {
		t.Errorf("NewEngine: %.1f allocs/op, want %.1f (the cipher's %.1f plus the engine)", avg, cipherAllocs+1, cipherAllocs)
	}
}

func TestCounterStore(t *testing.T) {
	s := NewCounterStore(64)
	if s.Get(10) != 0 {
		t.Fatal("fresh counter not zero")
	}
	if s.Bump(10) != 1 || s.Bump(10) != 2 {
		t.Fatal("Bump sequence wrong")
	}
	if s.Get(10) != 2 {
		t.Fatal("Get after Bump wrong")
	}
	if s.Get(11) != 0 {
		t.Fatal("unrelated counter affected")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestCounterStoreSaveLoad pins the counter section's format (count, then
// address/counter pairs in address order) and the loader's checks: an
// address must lie below the caller's line count before it sizes the dense
// table, and SaveTo never writes a zero counter or an address twice.
func TestCounterStoreSaveLoad(t *testing.T) {
	s := NewCounterStore(64)
	s.Bump(40)
	s.Bump(3)
	s.Bump(3)
	s.Set(9, 7)
	s.Set(9, 0) // cleared: not saved
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := section(2, 3, 2, 40, 1)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("saved % x, want % x", buf.Bytes(), want)
	}
	got, err := LoadCounterStore(bytes.NewReader(want), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Get(3) != 2 || got.Get(40) != 1 || got.Get(9) != 0 {
		t.Fatalf("loaded Len=%d counters %d/%d/%d", got.Len(), got.Get(3), got.Get(40), got.Get(9))
	}
	if a := got.Addrs(); len(a) != 2 || a[0] != 3 || a[1] != 40 {
		t.Fatalf("Addrs = %v", a)
	}

	for name, in := range map[string][]byte{
		"address at the line count": section(1, 64, 1),
		"address 2^64-1":            section(1, 1<<64-1, 1),
		"count beyond lines":        section(65),
		"zero counter":              section(1, 5, 0),
		"address twice":             section(2, 5, 1, 5, 2),
	} {
		if _, err := LoadCounterStore(bytes.NewReader(in), 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// section encodes 64-bit little-endian words.
func section(words ...uint64) []byte {
	var out []byte
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

func TestCounterMonotoneProperty(t *testing.T) {
	s := NewCounterStore(1 << 16)
	f := func(addr uint16, bumps uint8) bool {
		a := uint64(addr)
		before := s.Get(a)
		for i := 0; i < int(bumps); i++ {
			s.Bump(a)
		}
		return s.Get(a) == before+uint64(bumps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEncryptLine encrypts under a fresh (addr, counter) each time, as
// a unique write does: every pad misses the memo and is generated.
func BenchmarkEncryptLine(b *testing.B) {
	e := MustNewEngine(make([]byte, 16))
	line := make([]byte, config.LineSize)
	b.SetBytes(config.LineSize)
	for i := 0; i < b.N; i++ {
		e.EncryptLine(line, line, uint64(i), uint64(i))
	}
}

// BenchmarkDecryptLineMemoHit decrypts a line just encrypted, as a verify
// read or a read after a write does: the pad comes from the memo.
func BenchmarkDecryptLineMemoHit(b *testing.B) {
	e := MustNewEngine(make([]byte, 16))
	line := make([]byte, config.LineSize)
	e.EncryptLine(line, line, 7, 3)
	b.SetBytes(config.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DecryptLine(line, line, 7, 3)
	}
}

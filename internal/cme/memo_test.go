package cme

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// referencePad is the oracle for the pad memo: the pad generated afresh by
// 16 single-block encryptions of addr (8 B LE) | counter (low 56 bits, 7 B
// LE) | block index, under the test key.
func referencePad(t testing.TB, addr, counter uint64) []byte {
	t.Helper()
	block, err := aes.NewCipher([]byte(testKey))
	if err != nil {
		t.Fatal(err)
	}
	var seed [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(seed[0:8], addr)
	binary.LittleEndian.PutUint64(seed[8:16], counter&(1<<56-1))
	pad := make([]byte, config.LineSize)
	for b := 0; b < config.AESBlocksPerLine; b++ {
		seed[15] = byte(b)
		block.Encrypt(pad[b*aes.BlockSize:(b+1)*aes.BlockSize], seed[:])
	}
	return pad
}

// checkPad asserts that the engine's pad for (addr, counter) is the
// reference pad, and returns it.
func checkPad(t *testing.T, e *Engine, addr, counter uint64) []byte {
	t.Helper()
	pad := make([]byte, config.LineSize)
	e.Pad(pad, addr, counter)
	if !bytes.Equal(pad, referencePad(t, addr, counter)) {
		t.Fatalf("Pad(%#x, %#x) differs from the reference pad", addr, counter)
	}
	return pad
}

// TestPadMemoMatchesReference drives pad sequences that hit, miss and evict
// memo slots; every pad must equal the reference pad.
func TestPadMemoMatchesReference(t *testing.T) {
	const a = 0x2a
	for _, tc := range []struct {
		name  string
		addrs []uint64
		ctrs  []uint64
	}{
		{"repeat", []uint64{a, a, a, a}, []uint64{5, 5, 5, 5}},
		{"one slot, two addresses", []uint64{a, a + padSlots, a, a + padSlots, a, a + 2*padSlots, a}, []uint64{1, 1, 1, 1, 2, 2, 2}},
		{"counter bumps", []uint64{a, a, a, a, a, a}, []uint64{0, 1, 2, 3, 2, 4}},
		{"56-bit cap", []uint64{a, a, a, a, a, a}, []uint64{1<<56 - 1, 1 << 56, 0, 1<<56 + 1, 1, 1 << 56}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEngine(t)
			for i, addr := range tc.addrs {
				checkPad(t, e, addr, tc.ctrs[i])
			}
		})
	}

	// The seed holds the counter's low 56 bits, so (a, 2^56) is (a, 0) and
	// (a, 2^56+1) is (a, 1), whichever of the two fills the slot first.
	e := testEngine(t)
	for _, c := range []uint64{0, 1} {
		first := checkPad(t, e, a, c)
		if !bytes.Equal(checkPad(t, e, a, c+1<<56), first) {
			t.Errorf("counter %#x: pad differs from counter %d", c+1<<56, c)
		}
		checkPad(t, e, a, c+1<<56+7)
		if !bytes.Equal(checkPad(t, e, a, c), first) {
			t.Errorf("counter %d after counter %#x: pad changed", c, c+1<<56+7)
		}
	}
}

// TestPadMemoEmptySlots checks every slot of a fresh engine at counter 0: an
// empty slot must not pass for a generated pad.
func TestPadMemoEmptySlots(t *testing.T) {
	e := testEngine(t)
	for addr := uint64(0); addr < padSlots; addr++ {
		checkPad(t, e, addr, 0)
	}
}

// TestPadMemoInterleaved runs a random program of Pad, EncryptLine and
// DecryptLine over addresses that share four slots, against a model device
// holding each address's last ciphertext and counter. Every ciphertext must
// be the plaintext XOR the reference pad, and every read of the device must
// decrypt to the plaintext last written, across evictions.
func TestPadMemoInterleaved(t *testing.T) {
	type stored struct {
		ctr       uint64
		plain, ct []byte
	}
	e := testEngine(t)
	src := rng.New(17)
	device := make(map[uint64]stored)
	ctrs := NewCounterStore(4 * padSlots)
	line := make([]byte, config.LineSize)
	for i := 0; i < 3000; i++ {
		addr := src.Uint64n(4) + padSlots*src.Uint64n(4)
		switch src.Uint64n(3) {
		case 0:
			checkPad(t, e, addr, src.Uint64n(8))
		case 1:
			ctr := ctrs.Bump(addr)
			plain := make([]byte, config.LineSize)
			src.Fill(plain)
			ct := make([]byte, config.LineSize)
			e.EncryptLine(ct, plain, addr, ctr)
			ref := referencePad(t, addr, ctr)
			for j := range ct {
				if ct[j] != plain[j]^ref[j] {
					t.Fatalf("step %d: EncryptLine(%#x, %d) byte %d is not plaintext XOR the reference pad", i, addr, ctr, j)
				}
			}
			device[addr] = stored{ctr: ctr, plain: plain, ct: ct}
		case 2:
			s, ok := device[addr]
			if !ok {
				continue
			}
			e.DecryptLine(line, s.ct, addr, s.ctr)
			if !bytes.Equal(line, s.plain) {
				t.Fatalf("step %d: DecryptLine(%#x, %d) did not return the plaintext written", i, addr, s.ctr)
			}
		}
	}
}

// TestPadMemoDecryptsStoredBytes flips a bit of a stored ciphertext between
// the write and the read: the memo holds pads, not lines, so the flip must
// reach the plaintext the read returns.
func TestPadMemoDecryptsStoredBytes(t *testing.T) {
	e := testEngine(t)
	plain := make([]byte, config.LineSize)
	rng.New(5).Fill(plain)
	ct := make([]byte, config.LineSize)
	e.EncryptLine(ct, plain, 9, 4)
	ct[100] ^= 0x10
	got := make([]byte, config.LineSize)
	e.DecryptLine(got, ct, 9, 4)
	want := append([]byte(nil), plain...)
	want[100] ^= 0x10
	if !bytes.Equal(got, want) {
		t.Fatal("a flipped ciphertext bit did not reach the decrypted line")
	}
}

// TestPadOpCountedOnHits checks that every pad request counts one aes-pad
// op, whether or not the memo answers it: the op models the hardware's OTP
// generation, which the memo does not remove.
func TestPadOpCountedOnHits(t *testing.T) {
	e := testEngine(t)
	rec := attr.NewRecorder(1, 0)
	e.SetAttr(rec)
	const n = 9
	var t0 units.Time
	rec.Begin(attr.KindRead, 0, 7, t0)
	line := make([]byte, config.LineSize)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			e.Pad(line, 7, 3)
		case 1:
			e.EncryptLine(line, line, 7, 3)
		case 2:
			e.DecryptLine(line, line, 7, 3)
		}
	}
	rec.End(t0)
	var got uint64
	for _, op := range rec.Report().Ops {
		if op.Op == attr.OpAESPad.String() {
			got += op.Count
		}
	}
	if got != n {
		t.Fatalf("%d pad requests on one (addr, counter) counted %d aes-pad ops", n, got)
	}
}

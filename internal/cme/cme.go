// Package cme implements the CPU-side memory-encryption models from
// Section II-B of the paper: counter-mode encryption (CME) for data lines and
// direct encryption for metadata lines.
//
// In counter mode, a one-time pad (OTP) is generated by encrypting
// (line address, per-line counter, block index) tuples with AES-128 and the
// line is XORed with the pad. The counter increments on every write so a pad
// is never reused for the same address, and the address is part of the seed
// so pads are never shared across addresses. Decryption is the same XOR,
// which is what lets OTP generation overlap the NVM read.
//
// This package is the functional layer: real AES, real pads, real
// ciphertexts, computed with the standard library's crypto/aes (AES-NI where
// the host has it). Timing (when the 96 ns AES latency lands on the critical
// path) is modelled by the scheme packages that call it. An engine remembers
// the pads it generated most recently, so a line read back under the counter
// it was written with costs the host no AES work; the modelled hardware
// still generates every pad.
package cme

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/dense"
)

// keySize is the AES-128 key length. The modelled 96 ns line latency is an
// AES-128 figure, so the AES-192 and AES-256 key lengths crypto/aes would
// accept are refused too.
const keySize = 16

// padSlots is the size of an engine's direct-mapped pad memo; slot addr mod
// padSlots holds the last pad generated for an address that maps there. At
// 1024 slots a memo is 272 KiB. Over 1 M requests at seed 7 it catches 48 %
// of lbm's pad requests (224 k of 467 k) and 6 % of vips' (31 k of 527 k),
// mostly verify reads of lines written shortly before; the harness's reads
// are timing-only and request no pad. Larger memos gain a few points each
// doubling while the experiment suite, which builds hundreds of engines,
// pays for every one.
const padSlots = 1024

// Engine encrypts and decrypts 256 B lines under a single secret key. It owns
// its pad memo, so it is not safe for concurrent use: give each goroutine its
// own engine, as each core.Controller owns one.
type Engine struct {
	cipher cipher.Block
	rec    *attr.Recorder // nil when attribution is off

	// The block cipher is an interface, so every buffer handed to it
	// escapes. Pads are generated in place in the memo and copied or XORed
	// out, which keeps the callers' lines off the heap.
	memo *padMemo // nil until the first pad, so construction stays cheap
}

// padMemo caches pads by (addr, counter). A pad is a pure function of the
// key, the address and the counter's low 56 bits, so a hit returns exactly
// the bytes a fresh generation would. It holds pads only, never plaintext:
// a stored ciphertext is always read from the device and XORed afresh.
type padMemo struct {
	// pads come first so each 256 B pad starts on a cache-line boundary of
	// the page-aligned allocation and fills exactly four cache lines.
	pads [padSlots][config.LineSize]byte
	// tags are apart from the pads, so a probe reads 16 bytes. The counter
	// is stored plus one, so the zero tag marks an empty slot.
	tags [padSlots]padTag
}

type padTag struct{ addr, ctr1 uint64 }

// SetAttr attaches (or, with nil, detaches) the attribution recorder. The
// engine counts one aes-pad op per OTP the modelled hardware generates (memo
// hits included) against the open sampled request.
func (e *Engine) SetAttr(rec *attr.Recorder) { e.rec = rec }

// NewEngine returns an engine using the given 16-byte secret key.
func NewEngine(key []byte) (*Engine, error) {
	if len(key) != keySize {
		return nil, fmt.Errorf("cme: key length %d, want %d", len(key), keySize)
	}
	c, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Engine{cipher: c}, nil
}

// MustNewEngine is NewEngine for known-good keys; it panics on error.
func MustNewEngine(key []byte) *Engine {
	e, err := NewEngine(key)
	if err != nil {
		panic(err)
	}
	return e
}

// Pad fills pad with the one-time pad for (addr, counter). len(pad) must be
// config.LineSize.
func (e *Engine) Pad(pad []byte, addr, counter uint64) {
	if len(pad) != config.LineSize {
		panic(fmt.Sprintf("cme: pad length %d, want %d", len(pad), config.LineSize))
	}
	copy(pad, e.genPad(addr, counter)[:])
}

// genPad returns the pad for (addr, counter), from the memo when its slot
// holds that pad and otherwise generated into the slot. The result is valid
// until the engine's next pad request.
func (e *Engine) genPad(addr, counter uint64) *[config.LineSize]byte {
	// Counted here (not in the Pad/EncryptLine/DecryptLine wrappers) so each
	// pad request is one op no matter which entry point made it, and counted
	// on a hit too: the op is the modelled hardware's OTP generation.
	e.rec.Op(attr.OpAESPad)
	if e.memo == nil {
		e.memo = new(padMemo)
	}
	// The counter is capped at 56 bits, far beyond any simulated write
	// count, so counters equal in those bits share a seed and a slot tag.
	ctr := counter & (1<<56 - 1)
	slot := addr % padSlots
	pad := &e.memo.pads[slot]
	tag := padTag{addr: addr, ctr1: ctr + 1}
	if e.memo.tags[slot] == tag {
		return pad
	}
	// Seed layout: addr (8 B LE) | counter (7 B LE) | block index (1 B).
	// The block index keeps the 16 pads of one line distinct. All 16 seeds
	// are written into the slot first and each block is then encrypted in
	// place, so no call waits on a seed the previous one read and the CPU
	// overlaps the 16 AES calls.
	for off := 0; off < config.LineSize; off += aes.BlockSize {
		binary.LittleEndian.PutUint64(pad[off:off+8], addr)
		binary.LittleEndian.PutUint64(pad[off+8:off+16], ctr)
		pad[off+15] = byte(off / aes.BlockSize)
	}
	for off := 0; off < config.LineSize; off += aes.BlockSize {
		s := pad[off : off+aes.BlockSize]
		e.cipher.Encrypt(s, s)
	}
	e.memo.tags[slot] = tag
	return pad
}

// EncryptLine produces the counter-mode ciphertext of src into dst.
// dst and src must both be config.LineSize bytes; they may be the same slice.
func (e *Engine) EncryptLine(dst, src []byte, addr, counter uint64) {
	e.xorPad(dst, src, addr, counter)
}

// DecryptLine recovers the plaintext of src into dst; counter mode is
// symmetric, so this is the same pad XOR as EncryptLine. A nil dst is a
// timing-only read: the modelled hardware still generates the pad, so the
// engine counts its aes-pad op, but it neither makes the pad on the host
// nor reads src.
func (e *Engine) DecryptLine(dst, src []byte, addr, counter uint64) {
	if dst == nil {
		e.rec.Op(attr.OpAESPad)
		return
	}
	e.xorPad(dst, src, addr, counter)
}

func (e *Engine) xorPad(dst, src []byte, addr, counter uint64) {
	checkLine(dst, src)
	subtle.XORBytes(dst, src, e.genPad(addr, counter)[:])
}

func checkLine(dst, src []byte) {
	if len(dst) != config.LineSize || len(src) != config.LineSize {
		panic(fmt.Sprintf("cme: line length %d/%d, want %d", len(dst), len(src), config.LineSize))
	}
}

// CounterStore tracks the per-line write counters. The architectural home of
// each counter (colocated in the dedup tables, Section III-C) is modelled by
// the controller; this store is the functional source of truth.
type CounterStore struct {
	lines    uint64   // address bound
	counters []uint64 // indexed by line address; grows on first touch
	nonzero  int      // counters that are not zero
}

// NewCounterStore returns an empty store for line addresses below lines;
// absent lines have counter 0.
func NewCounterStore(lines uint64) *CounterStore {
	return &CounterStore{lines: lines}
}

// Get returns the current counter for addr.
func (s *CounterStore) Get(addr uint64) uint64 {
	if addr < uint64(len(s.counters)) {
		return s.counters[addr]
	}
	return 0
}

// Bump increments and returns the counter used for the next write of addr.
func (s *CounterStore) Bump(addr uint64) uint64 {
	s.counters = dense.Grow(s.counters, addr, s.lines)
	if s.counters[addr] == 0 {
		s.nonzero++
	}
	s.counters[addr]++
	return s.counters[addr]
}

// SaveTo serializes the counters in deterministic address order.
func (s *CounterStore) SaveTo(w io.Writer) error {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(s.nonzero))
	if _, err := w.Write(b8[:]); err != nil {
		return err
	}
	for a, v := range s.counters {
		if v == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(b8[:], uint64(a))
		if _, err := w.Write(b8[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(b8[:], v)
		if _, err := w.Write(b8[:]); err != nil {
			return err
		}
	}
	return nil
}

// LoadCounterStore deserializes a store saved by SaveTo for line addresses
// below lines. An address at or beyond lines, a zero counter or an address
// listed twice is rejected: SaveTo writes none of them, and an address is
// checked before it sizes the dense table.
func LoadCounterStore(r io.Reader, lines uint64) (*CounterStore, error) {
	var b8 [8]byte
	if _, err := io.ReadFull(r, b8[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(b8[:])
	if count > lines {
		return nil, fmt.Errorf("cme: %d counters over %d lines", count, lines)
	}
	s := NewCounterStore(lines)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return nil, err
		}
		addr := binary.LittleEndian.Uint64(b8[:])
		if _, err := io.ReadFull(r, b8[:]); err != nil {
			return nil, err
		}
		v := binary.LittleEndian.Uint64(b8[:])
		switch {
		case addr >= lines:
			return nil, fmt.Errorf("cme: counter address %#x beyond %d lines", addr, lines)
		case v == 0:
			return nil, fmt.Errorf("cme: zero counter saved for %#x", addr)
		case s.Get(addr) != 0:
			return nil, fmt.Errorf("cme: counter for %#x saved twice", addr)
		}
		s.Set(addr, v)
	}
	return s, nil
}

// Set overwrites the counter for addr — the recovery path installs persisted
// counter values with it. A zero value clears the entry.
func (s *CounterStore) Set(addr, v uint64) {
	old := s.Get(addr)
	switch {
	case v == old:
		return
	case old == 0:
		s.nonzero++
	case v == 0:
		s.nonzero--
	}
	s.counters = dense.Grow(s.counters, addr, s.lines)
	s.counters[addr] = v
}

// Addrs returns the addresses with nonzero counters in sorted order, for
// deterministic iteration during crash recovery.
func (s *CounterStore) Addrs() []uint64 {
	addrs := make([]uint64, 0, s.nonzero)
	for a, v := range s.counters {
		if v != 0 {
			addrs = append(addrs, uint64(a))
		}
	}
	return addrs
}

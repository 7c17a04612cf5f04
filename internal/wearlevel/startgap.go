// Package wearlevel implements Start-Gap wear leveling (Qureshi et al.,
// MICRO 2009), the standard low-overhead scheme for PCM main memory and a
// natural companion to DeWrite: deduplication reduces how many writes reach
// the array, wear leveling spreads the survivors evenly across it.
//
// The region holds N logical lines in N+1 physical slots; one slot — the
// gap — is always unused. Every psi writes, the gap moves down by one slot
// (copying its neighbour's line), and after a full cycle the whole region
// has rotated by one line, so hot logical lines migrate across all physical
// slots over time. The remap is pure arithmetic over two registers (start
// and gap); no translation table is needed.
package wearlevel

import (
	"fmt"

	"dewrite/internal/config"
	"dewrite/internal/stats"
	"dewrite/internal/units"
)

// Device is the line-addressable memory Start-Gap sits on;
// *baseline.SecureNVM satisfies it. ReadInto copies one line into dst.
type Device interface {
	ReadInto(now units.Time, lineAddr uint64, dst []byte) units.Time
	Write(now units.Time, lineAddr uint64, data []byte) units.Time
}

// StartGap remaps a region of n logical lines onto n+1 physical slots
// starting at base. Not safe for concurrent use.
type StartGap struct {
	dev  Device
	base uint64 // first physical slot of the region
	n    uint64 // logical lines
	m    uint64 // physical slots (n + 1)
	psi  int    // writes between gap movements

	gap          uint64 // physical slot (region-relative) of the gap
	ringK        uint64 // logical line that sits immediately after the gap
	writesToMove int

	moves     stats.Counter
	rotations stats.Counter
	writes    stats.Counter

	line [config.LineSize]byte // scratch: the line a gap move copies
}

// New returns a Start-Gap layer over dev for n logical lines at physical
// base. The device must provide n+1 slots starting at base. psi is the
// number of line writes between gap movements (Qureshi et al. use 100,
// bounding the write overhead to 1 %).
func New(dev Device, base, n uint64, psi int) *StartGap {
	if n == 0 {
		panic("wearlevel: zero lines")
	}
	if psi < 1 {
		panic("wearlevel: psi must be at least 1")
	}
	return &StartGap{
		dev:          dev,
		base:         base,
		n:            n,
		m:            n + 1,
		psi:          psi,
		gap:          n, // the spare slot starts at the top...
		ringK:        0, // ...with logical line 0 right after it (slot 0)
		writesToMove: psi,
	}
}

// Physical returns the physical slot currently holding logical line la.
//
// The lines occupy the m-slot ring in fixed circular order 0..n-1 with the
// gap inserted between two of them; gap movements walk the gap backward
// through that order. The state is therefore (gap slot, ringK), where ringK
// is the logical line immediately after the gap: line (ringK+j) mod n sits
// at slot (gap+1+j) mod m.
func (s *StartGap) Physical(la uint64) uint64 {
	if la >= s.n {
		panic(fmt.Sprintf("wearlevel: logical line %#x beyond %d", la, s.n))
	}
	j := (la + s.n - s.ringK) % s.n
	return s.base + (s.gap+1+j)%s.m
}

// ReadInto copies logical line la into dst, which must hold one line, and
// returns the completion time.
func (s *StartGap) ReadInto(now units.Time, la uint64, dst []byte) units.Time {
	return s.dev.ReadInto(now, s.Physical(la), dst)
}

// Write stores the line and advances the wear-leveling schedule: every psi
// writes the gap moves one slot (one read plus one write of overhead).
func (s *StartGap) Write(now units.Time, la uint64, data []byte) units.Time {
	done := s.dev.Write(now, s.Physical(la), data)
	s.writes.Inc()
	s.writesToMove--
	if s.writesToMove == 0 {
		s.writesToMove = s.psi
		done = s.moveGap(done)
	}
	return done
}

// moveGap swaps the gap with its ring predecessor: the line below the gap
// is copied up one slot and the gap descends, wrapping around the ring.
// Every m moves the whole region has rotated forward by one slot.
func (s *StartGap) moveGap(now units.Time) units.Time {
	src := (s.gap + s.m - 1) % s.m
	t := s.dev.ReadInto(now, s.base+src, s.line[:])
	t = s.dev.Write(t, s.base+s.gap, s.line[:])
	s.gap = src
	s.ringK = (s.ringK + s.n - 1) % s.n
	s.moves.Inc()
	if s.gap == s.m-1 {
		s.rotations.Inc()
	}
	return t
}

// Stats reports the wear-leveling activity.
type Stats struct {
	Writes    uint64 // logical line writes
	GapMoves  uint64
	Rotations uint64 // full region rotations completed
	Overhead  float64
}

// Stats returns the counters; Overhead is extra device writes per logical
// write (≈ 1/psi).
func (s *StartGap) Stats() Stats {
	return Stats{
		Writes:    s.writes.Value(),
		GapMoves:  s.moves.Value(),
		Rotations: s.rotations.Value(),
		Overhead:  stats.Ratio(s.moves.Value(), s.writes.Value()),
	}
}

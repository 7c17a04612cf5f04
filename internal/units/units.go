// Package units defines the simulated time base and size units shared by
// every component of the simulator.
//
// Simulated time is an integer count of picoseconds. Picoseconds are fine
// enough to represent sub-nanosecond events (a 2 GHz CPU cycle is 500 ps)
// without floating-point drift, and a uint64 of picoseconds covers more than
// 200 days of simulated time, far beyond any run in this repository.
package units

import "fmt"

// Time is an absolute simulated timestamp in picoseconds.
type Time uint64

// Duration is a span of simulated time in picoseconds.
type Duration uint64

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Common byte-size units.
const (
	Byte = 1
	KB   = 1024 * Byte
	MB   = 1024 * KB
	GB   = 1024 * MB
)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and the earlier timestamp u.
// It panics if u is later than t: a negative duration always indicates a
// scheduling bug, and silently wrapping a uint64 would corrupt every
// downstream statistic.
func (t Time) Sub(u Time) Duration {
	if u > t {
		panic(fmt.Sprintf("units: negative duration: %d - %d", t, u))
	}
	return Duration(t - u)
}

// Max returns the later of two timestamps.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of two timestamps.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// String formats the duration with an adaptive unit, e.g. "75ns" or "1.25us".
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0"
	case d < Nanosecond:
		return fmt.Sprintf("%dps", uint64(d))
	case d < Microsecond:
		return trimUnit(float64(d)/float64(Nanosecond), "ns")
	case d < Millisecond:
		return trimUnit(float64(d)/float64(Microsecond), "us")
	case d < Second:
		return trimUnit(float64(d)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(d)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	// Trim trailing zeros and a dangling decimal point.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// Clock converts between cycles of a fixed-frequency clock and simulated time.
type Clock struct {
	period Duration // duration of one cycle
}

// NewClock returns a clock running at the given frequency in hertz.
// It panics if the frequency does not divide one second into a whole number
// of picoseconds (all realistic simulator frequencies do).
func NewClock(hz uint64) Clock {
	if hz == 0 {
		panic("units: zero clock frequency")
	}
	ps := uint64(Second) / hz
	if ps == 0 || uint64(Second)%hz != 0 {
		panic(fmt.Sprintf("units: frequency %d Hz does not yield a whole picosecond period", hz))
	}
	return Clock{period: Duration(ps)}
}

// Period returns the duration of one cycle.
func (c Clock) Period() Duration { return c.period }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n uint64) Duration { return Duration(n) * c.period }

// CyclesIn reports how many whole cycles fit in d.
func (c Clock) CyclesIn(d Duration) uint64 { return uint64(d / c.period) }

package baseline

import (
	"fmt"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// Shredder layers Silent Shredder-style zero-line elimination on the
// traditional secure NVM: writes of all-zero lines are not sent to the
// array — a per-line "shredded" mark (carried in the counter metadata in the
// original design) records that the line reads as zero. The paper's
// observation (Section II-C) is that zero lines average only ~16 % of writes,
// which is why full line-level deduplication wins.
type Shredder struct {
	inner    *SecureNVM
	shredded map[uint64]bool

	writes     stats.Counter
	eliminated stats.Counter
}

// NewShredder returns a Silent Shredder controller over a fresh device.
func NewShredder(dataLines uint64, cfg config.Config) *Shredder {
	return &Shredder{
		inner:    NewSecureNVM(dataLines, cfg),
		shredded: make(map[uint64]bool),
	}
}

// Inner exposes the wrapped SecureNVM for statistics.
func (sh *Shredder) Inner() *SecureNVM { return sh.inner }

// SetAttr attaches the attribution recorder to the wrapped SecureNVM.
func (sh *Shredder) SetAttr(rec *attr.Recorder) { sh.inner.SetAttr(rec) }

// SampleEpoch implements timeline.Sampler: the wrapper's own write and
// zero-elimination counts over the inner SecureNVM's device/cache state.
func (sh *Shredder) SampleEpoch(e *timeline.Epoch, now units.Time) {
	sh.inner.SampleEpoch(e, now)
	e.Writes = sh.writes.Value()
	e.DupEliminated = sh.eliminated.Value()
	e.ZeroWrites = sh.eliminated.Value()
}

// IsZeroLine reports whether every byte of data is zero.
func IsZeroLine(data []byte) bool {
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// Write eliminates all-zero lines; everything else takes the SecureNVM path.
func (sh *Shredder) Write(now units.Time, logical uint64, data []byte) units.Time {
	sh.writes.Inc()
	if IsZeroLine(data) {
		sh.eliminated.Inc()
		sh.shredded[logical] = true
		// The shred mark defines the line's value again, superseding any
		// data previously lost to a crash or an exhausted device.
		if len(sh.inner.poisoned) != 0 {
			delete(sh.inner.poisoned, logical)
		}
		// Only the shred mark in the counter metadata is updated.
		return sh.inner.counterAccess(now, logical, true)
	}
	delete(sh.shredded, logical)
	return sh.inner.Write(now, logical, data)
}

// Read returns zeros for shredded lines with only a counter-cache access;
// other lines take the SecureNVM path. The returned slice is freshly
// allocated and owned by the caller; hot loops use ReadInto instead.
func (sh *Shredder) Read(now units.Time, logical uint64) ([]byte, units.Time) {
	out := make([]byte, config.LineSize)
	done := sh.ReadInto(now, logical, out)
	return out, done
}

// ReadInto is Read without the per-call allocation: the plaintext is copied
// into dst, which must hold one line.
func (sh *Shredder) ReadInto(now units.Time, logical uint64, dst []byte) units.Time {
	if sh.shredded[logical] {
		if len(dst) != config.LineSize {
			panic(fmt.Sprintf("baseline: read into %d bytes", len(dst)))
		}
		done := sh.inner.counterAccess(now, logical, false)
		clear(dst)
		return done
	}
	return sh.inner.ReadInto(now, logical, dst)
}

// Eliminated returns the number of zero-line writes avoided.
func (sh *Shredder) Eliminated() uint64 { return sh.eliminated.Value() }

// WriteReduction returns the fraction of writes eliminated.
func (sh *Shredder) WriteReduction() float64 {
	return stats.Ratio(sh.eliminated.Value(), sh.writes.Value())
}

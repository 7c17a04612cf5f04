// Package attr is a nilsafe fixture mirroring the real recorder's guard
// idioms: the nil *Recorder / *Ledger is the disabled attribution layer,
// held unconditionally by every simulated component.
package attr

type Recorder struct {
	open bool
	seen uint64
}

// Begin guards with a compound condition led by the nil test.
func (r *Recorder) Begin(addr uint64) {
	if r == nil || r.open {
		return
	}
	r.open = true
	r.seen++
}

// Sampling is a predicate over the receiver's nilness.
func (r *Recorder) Sampling() bool {
	return r != nil && r.open
}

// End delegates to a guarded sibling as its entire body.
func (r *Recorder) End(addr uint64) {
	r.Begin(addr)
}

// Capturing delegates through a return statement.
func (r *Recorder) Capturing() bool {
	return r.Sampling()
}

// Seen copies the receiver: nil cannot reach a value receiver's fields
// through a method call on a non-nil interface path, so it is exempt.
func (r Recorder) Seen() uint64 {
	return r.seen
}

func (r *Recorder) Unguarded() { // want `exported method Unguarded must begin with a nil-receiver guard`
	r.seen++
}

func (r *Recorder) GuardedLate(addr uint64) { // want `exported method GuardedLate must begin with a nil-receiver guard`
	addr++
	if r == nil {
		return
	}
	r.seen += addr
}

type Ledger struct {
	writes [4]uint64
}

// RecordWrite begins with the canonical guard.
func (l *Ledger) RecordWrite(cause int) {
	if l == nil {
		return
	}
	l.writes[cause]++
}

func (l *Ledger) Total() uint64 { // want `exported method Total must begin with a nil-receiver guard`
	var n uint64
	for _, w := range l.writes {
		n += w
	}
	return n
}

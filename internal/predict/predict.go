// Package predict implements the duplication-state predictor from
// Section III-A of the paper: a small on-chip history window recording
// whether the most recent writes to main memory were duplicates, with a
// majority vote predicting the state of the next write.
//
// The paper finds that a single previous write predicts with ~92 % accuracy
// because duplication states are temporally clustered, and that a 3-bit
// window adds ~1.5 points; DeWrite uses the 3-bit window, so its total
// on-chip predictor state is 3 bits.
package predict

import "dewrite/internal/stats"

// Predictor is the history-window majority-vote predictor. The zero value is
// not usable; call New.
type Predictor struct {
	window []bool
	pos    int
	filled int
	ones   int

	predictions stats.Counter
	correct     stats.Counter
}

// New returns a predictor with the given history window length in bits.
// historyBits must be at least 1; the paper's DeWrite configuration uses 3.
func New(historyBits int) *Predictor {
	if historyBits < 1 {
		panic("predict: history window must hold at least one bit")
	}
	return &Predictor{window: make([]bool, historyBits)}
}

// Predict returns the predicted duplication state of the next write:
// the majority of the recorded window, breaking ties toward the most recent
// write (which makes even-width windows behave like the 1-bit predictor, as
// the paper observes for the 2-bit case). With an empty window it predicts
// non-duplicate, the safe default: a mispredicted non-duplicate costs only
// wasted encryption energy, never a lost write reduction.
func (p *Predictor) Predict() bool {
	if p.filled == 0 {
		return false
	}
	zeros := p.filled - p.ones
	switch {
	case p.ones > zeros:
		return true
	case p.ones < zeros:
		return false
	default:
		return p.last()
	}
}

func (p *Predictor) last() bool {
	idx := (p.pos - 1 + len(p.window)) % len(p.window)
	return p.window[idx]
}

// Record appends the observed duplication state of a completed write to the
// window, displacing the oldest entry once the window is full.
func (p *Predictor) Record(duplicate bool) {
	if p.filled == len(p.window) {
		if p.window[p.pos] {
			p.ones--
		}
	} else {
		p.filled++
	}
	p.window[p.pos] = duplicate
	if duplicate {
		p.ones++
	}
	p.pos = (p.pos + 1) % len(p.window)
}

// Observe performs a predict-then-record step and reports the prediction. It
// also tracks accuracy, which Figure 4 reproduces.
func (p *Predictor) Observe(actual bool) (predicted bool) {
	predicted = p.Predict()
	p.predictions.Inc()
	if predicted == actual {
		p.correct.Inc()
	}
	p.Record(actual)
	return predicted
}

// Accuracy returns the fraction of Observe calls whose prediction matched.
func (p *Predictor) Accuracy() float64 {
	return p.correct.Ratio(&p.predictions)
}

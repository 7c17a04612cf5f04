package predict

import (
	"testing"

	"dewrite/internal/rng"
)

func TestEmptyPredictsNonDuplicate(t *testing.T) {
	if New(3).Predict() {
		t.Fatal("empty window predicted duplicate")
	}
}

func TestMajorityVote(t *testing.T) {
	p := New(3)
	p.Record(true)
	p.Record(true)
	p.Record(false)
	if !p.Predict() {
		t.Fatal("2/3 duplicates should predict duplicate")
	}
	p.Record(false) // window now T,F,F
	if p.Predict() {
		t.Fatal("1/3 duplicates should predict non-duplicate")
	}
}

func TestWindowSlides(t *testing.T) {
	p := New(3)
	for i := 0; i < 10; i++ {
		p.Record(true)
	}
	for i := 0; i < 3; i++ {
		p.Record(false)
	}
	if p.Predict() {
		t.Fatal("window should have fully slid to non-duplicate")
	}
}

func TestTieBreaksTowardMostRecent(t *testing.T) {
	p := New(2)
	p.Record(false)
	p.Record(true)
	if !p.Predict() {
		t.Fatal("tie with most-recent=dup should predict dup")
	}
	p2 := New(2)
	p2.Record(true)
	p2.Record(false)
	if p2.Predict() {
		t.Fatal("tie with most-recent=non-dup should predict non-dup")
	}
}

func TestTwoBitEqualsOneBitBehaviour(t *testing.T) {
	// Paper: the 2-bit window's predictions match the 1-bit window's.
	src := rng.New(5)
	p1, p2 := New(1), New(2)
	state := false
	for i := 0; i < 5000; i++ {
		// Markov stream with strong persistence.
		if src.Bool(0.1) {
			state = !state
		}
		if p1.Predict() != p2.Predict() {
			t.Fatalf("1-bit and 2-bit predictions diverged at step %d", i)
		}
		p1.Record(state)
		p2.Record(state)
	}
}

func TestAccuracyOnPersistentStream(t *testing.T) {
	// A Markov stream with P(same as previous) = 0.92 should give the 1-bit
	// predictor ~92 % accuracy (Figure 4).
	src := rng.New(7)
	p := New(1)
	state := false
	const n = 200000
	for i := 0; i < n; i++ {
		if src.Bool(0.08) {
			state = !state
		}
		p.Observe(state)
	}
	acc := p.Accuracy()
	if acc < 0.91 || acc > 0.93 {
		t.Fatalf("1-bit accuracy = %.4f, want ~0.92", acc)
	}
}

func TestThreeBitBeatsOneBitOnBurstyStream(t *testing.T) {
	// With occasional single-write state glitches, the 3-bit majority
	// filter rides through them while the 1-bit predictor mispredicts twice.
	mk := func(bits int) float64 {
		src := rng.New(11)
		p := New(bits)
		state := true
		for i := 0; i < 100000; i++ {
			v := state
			if src.Bool(0.06) {
				v = !state // isolated glitch, state itself persists
			} else if src.Bool(0.02) {
				state = !state
				v = state
			}
			p.Observe(v)
		}
		return p.Accuracy()
	}
	one, three := mk(1), mk(3)
	if three <= one {
		t.Fatalf("3-bit (%.4f) should beat 1-bit (%.4f) on glitchy stream", three, one)
	}
}

func TestObserveCountsAndAccuracy(t *testing.T) {
	p := New(3)
	p.Observe(false) // empty window predicts false → correct
	p.Observe(false) // window all-false → predicts false → correct
	p.Observe(true)  // predicts false → wrong
	if got := p.Accuracy(); got != 2.0/3.0 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

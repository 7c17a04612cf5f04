package stats

import (
	"testing"

	"dewrite/internal/units"
)

// Percentile edge cases beyond export_test.go: exact two-point ranks, the
// [Min, Max] clamp, and the sparse Histogram (which had no edge coverage).

func TestLatencyPercentileTwoPoints(t *testing.T) {
	var l Latency
	l.Observe(units.Duration(100))
	l.Observe(units.Duration(1_000_000))
	// p=0.5 needs ceil(0.5*2)=1 observation: the smaller one.
	if got := l.Percentile(0.5); got != units.Duration(100) {
		t.Errorf("p50 of {100, 1e6} = %v, want 100", got)
	}
	// Anything above 1/2 needs both: the larger one, exactly (the final rank
	// is tracked outside the buckets).
	if got := l.Percentile(0.51); got != units.Duration(1_000_000) {
		t.Errorf("p51 of {100, 1e6} = %v, want 1e6", got)
	}
	if got := l.Percentile(1); got != units.Duration(1_000_000) {
		t.Errorf("p100 = %v, want 1e6", got)
	}
}

func TestLatencyPercentileClampedToObservedRange(t *testing.T) {
	// The bucket's lower bound can undershoot Min when observations cluster
	// high inside a coarse bucket; the result must stay within [Min, Max].
	var l Latency
	for i := 0; i < 100; i++ {
		l.Observe(units.Duration(1_000_003)) // interior of a coarse bucket
	}
	l.Observe(units.Duration(1_000_005))
	for _, p := range []float64{0.01, 0.5, 0.9999} {
		got := l.Percentile(p)
		if got < l.min || got > l.max {
			t.Errorf("Percentile(%v) = %v outside observed [%v, %v]", p, got, l.min, l.max)
		}
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	var h Histogram
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if got := h.FractionAtMost(100); got != 0 {
		t.Errorf("empty FractionAtMost = %v, want 0", got)
	}
}

func TestHistogramPercentileExact(t *testing.T) {
	// The sparse histogram is exact: check textbook ranks on 1..100.
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	cases := []struct {
		p    float64
		want uint64
	}{
		{-0.5, 1}, {0, 1}, {0.01, 1}, {0.5, 50}, {0.95, 95}, {0.999, 100}, {1, 100}, {3, 100},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestHistogramPercentileSkewed(t *testing.T) {
	// 999 zeros and one huge outlier: p99.9 is still 0, only p100 sees it.
	var h Histogram
	for i := 0; i < 999; i++ {
		h.Observe(0)
	}
	h.Observe(1 << 40)
	if got := h.Percentile(0.999); got != 0 {
		t.Errorf("p99.9 = %d, want 0", got)
	}
	if got := h.Percentile(1); got != 1<<40 {
		t.Errorf("p100 = %d, want 2^40", got)
	}
	if got := h.FractionAtMost(0); got != 0.999 {
		t.Errorf("FractionAtMost(0) = %v, want 0.999", got)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(42)
	for _, p := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Percentile(p); got != 42 {
			t.Errorf("single-point Percentile(%v) = %d, want 42", p, got)
		}
	}
	if h.Max() != 42 || h.Count() != 1 {
		t.Errorf("stats: max %d count %d", h.Max(), h.Count())
	}
	if got := h.FractionAtMost(41); got != 0 {
		t.Errorf("FractionAtMost(41) = %v, want 0", got)
	}
	if got := h.FractionAtMost(42); got != 1 {
		t.Errorf("FractionAtMost(42) = %v, want 1", got)
	}
}

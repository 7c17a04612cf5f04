package stats

import (
	"testing"

	"dewrite/internal/units"
)

// These tests lock the ordering contract dewrite-vet's determinism analyzer
// assumes: aggregates built over map-backed state must report identical
// results regardless of the order observations arrive, because callers feed
// them from range-over-map loops whose order Go randomizes per run.

// permutations of the observation stream chosen to disagree wildly: sorted,
// reversed, and an interleaved shuffle fixed by construction (no runtime
// randomness in a determinism test).
func orderings(vals []uint64) [][]uint64 {
	n := len(vals)
	sorted := append([]uint64(nil), vals...)
	reversed := make([]uint64, n)
	for i, v := range sorted {
		reversed[n-1-i] = v
	}
	interleaved := make([]uint64, 0, n)
	for i := 0; i < (n+1)/2; i++ {
		interleaved = append(interleaved, sorted[i])
		if j := n - 1 - i; j > i {
			interleaved = append(interleaved, sorted[j])
		}
	}
	return [][]uint64{sorted, reversed, interleaved}
}

func TestHistogramOrderIndependent(t *testing.T) {
	vals := []uint64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 377, 377}
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}

	var ref Histogram
	for _, v := range vals {
		ref.Observe(v)
	}
	for oi, order := range orderings(vals) {
		var h Histogram
		for _, v := range order {
			h.Observe(v)
		}
		for _, p := range quantiles {
			if got, want := h.Percentile(p), ref.Percentile(p); got != want {
				t.Errorf("ordering %d: Percentile(%v) = %d, want %d", oi, p, got, want)
			}
		}
		for _, v := range []uint64{0, 3, 100, 377} {
			if got, want := h.FractionAtMost(v), ref.FractionAtMost(v); got != want {
				t.Errorf("ordering %d: FractionAtMost(%d) = %v, want %v", oi, v, got, want)
			}
		}
		if h.Max() != ref.Max() || h.Count() != ref.Count() {
			t.Errorf("ordering %d: summary stats diverge from reference", oi)
		}
	}
}

func TestLatencyOrderIndependent(t *testing.T) {
	vals := []uint64{1, 4, 15, 15, 16, 17, 250, 1000, 4096, 65537, 1 << 30}
	quantiles := []float64{0, 0.5, 0.95, 0.99, 1}

	var ref Latency
	for _, v := range vals {
		ref.Observe(units.Duration(v))
	}
	for oi, order := range orderings(vals) {
		var l Latency
		for _, v := range order {
			l.Observe(units.Duration(v))
		}
		for _, p := range quantiles {
			if got, want := l.Percentile(p), ref.Percentile(p); got != want {
				t.Errorf("ordering %d: Percentile(%v) = %v, want %v", oi, p, got, want)
			}
		}
		if l.Mean() != ref.Mean() || l.min != ref.min || l.max != ref.max {
			t.Errorf("ordering %d: summary stats diverge from reference", oi)
		}
	}
}

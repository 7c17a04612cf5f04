package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dewrite/internal/units"
)

func TestLatencyPercentileEmpty(t *testing.T) {
	var l Latency
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := l.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
}

func TestLatencyPercentileSingleObservation(t *testing.T) {
	var l Latency
	l.Observe(123 * units.Nanosecond)
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := l.Percentile(p); got != 123*units.Nanosecond {
			t.Fatalf("single-obs Percentile(%v) = %v, want 123ns", p, got)
		}
	}
}

func TestLatencyPercentileUniform(t *testing.T) {
	var l Latency
	for i := 1; i <= 1000; i++ {
		l.Observe(units.Duration(i) * units.Nanosecond)
	}
	// Bucketed estimates must land within the documented 6.25 % of truth.
	for p, want := range map[float64]float64{0.50: 500, 0.95: 950, 0.99: 990} {
		got := float64(l.Percentile(p)) / float64(units.Nanosecond)
		if math.Abs(got-want)/want > 0.0625 {
			t.Errorf("P%v = %vns, want within 6.25%% of %vns", p*100, got, want)
		}
	}
	if l.Percentile(0) != l.min {
		t.Errorf("P0 = %v, want min %v", l.Percentile(0), l.min)
	}
	if l.Percentile(1) < l.Percentile(0.99) {
		t.Error("percentiles not monotone")
	}
	// Out-of-range p clamps.
	if l.Percentile(-1) != l.Percentile(0) || l.Percentile(2) != l.Percentile(1) {
		t.Error("out-of-range p did not clamp")
	}
}

func TestLatencyPercentileMonotoneProperty(t *testing.T) {
	var l Latency
	for _, v := range []units.Duration{5, 75000, 300000, 1, 300000, 90000, 12} {
		l.Observe(v)
	}
	f := func(a, b uint8) bool {
		pa, pb := float64(a)/255, float64(b)/255
		if pa > pb {
			pa, pb = pb, pa
		}
		return l.Percentile(pa) <= l.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyBucketsSaturate(t *testing.T) {
	var l Latency
	l.Observe(units.Duration(math.MaxUint64)) // beyond the top bucket boundary
	l.Observe(10 * units.Nanosecond)
	if l.max != units.Duration(math.MaxUint64) {
		t.Fatal("max not tracked exactly")
	}
	// The saturated observation still lands in the top bucket, and the
	// percentile clamps to the exact max.
	if got := l.Percentile(1); got != units.Duration(math.MaxUint64) {
		t.Fatalf("P100 = %v, want MaxUint64", got)
	}
	if got := l.Percentile(0.25); got != 10*units.Nanosecond {
		t.Fatalf("P25 = %v, want 10ns", got)
	}
}

func TestLatBucketRoundTrip(t *testing.T) {
	// Bucket boundaries are monotone and latBucketLow inverts latBucket on
	// boundary values.
	prev := -1
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1 << 20, 1<<20 + 1, 1 << 40, math.MaxUint64} {
		b := latBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d) = %d below previous %d", v, b, prev)
		}
		prev = b
		if low := latBucketLow(b); low > v {
			t.Fatalf("bucketLow(%d) = %d exceeds the value %d that mapped there", b, low, v)
		}
	}
	if latBucket(math.MaxUint64) != latNumBuckets-1 {
		t.Fatal("MaxUint64 should saturate into the top bucket")
	}
}

func TestTableMarshalJSONRoundTrip(t *testing.T) {
	tb := NewTable("Fig X", "app", "v")
	tb.AddRow("lbm", 1.5)
	tb.AddRow("mcf", 2)
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back tableJSON
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "Fig X" || len(back.Columns) != 2 || len(back.Rows) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Rows[0][0] != "lbm" || back.Rows[1][1] != "2" {
		t.Fatalf("rows = %v", back.Rows)
	}
}

func TestWriteCSVEmptyTable(t *testing.T) {
	tb := NewTable("empty", "only", "header")
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "only,header\n" {
		t.Fatalf("CSV = %q", buf.String())
	}
}

func TestWriteDATQuotingAndEmptyCells(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("tab\tcell", "")
	var buf strings.Builder
	if err := tb.WriteDAT(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `"tab\tcell"`) {
		t.Fatalf("DAT did not quote tab cell: %q", got)
	}
	if !strings.Contains(got, " -") {
		t.Fatalf("DAT did not dash empty cell: %q", got)
	}
}

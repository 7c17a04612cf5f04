package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"dewrite/internal/units"
)

func TestCounter(t *testing.T) {
	var c, total Counter
	if c.Value() != 0 {
		t.Fatal("zero counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	total.Add(10)
	if got := c.Ratio(&total); got != 0.5 {
		t.Fatalf("Ratio = %v, want 0.5", got)
	}
	var empty Counter
	if c.Ratio(&empty) != 0 {
		t.Fatal("Ratio with empty total should be 0")
	}
}

func TestLatency(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(0) != 0 || l.Percentile(1) != 0 {
		t.Fatal("zero latency not zero")
	}
	l.Observe(10 * units.Nanosecond)
	l.Observe(30 * units.Nanosecond)
	l.Observe(20 * units.Nanosecond)
	if l.Count() != 3 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 20*units.Nanosecond {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if l.Percentile(0) != 10*units.Nanosecond || l.Percentile(1) != 30*units.Nanosecond {
		t.Fatalf("Percentile(0)/(1) = %v/%v, want the exact min/max", l.Percentile(0), l.Percentile(1))
	}
	if l.Sum() != 60*units.Nanosecond {
		t.Fatalf("Sum = %v", l.Sum())
	}
}

func TestLatencyMinTracksFirstObservation(t *testing.T) {
	var l Latency
	l.Observe(5)
	if l.min != 5 {
		t.Fatalf("min after first obs = %v, want 5", l.min)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 1, 2, 3, 3, 3} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.buckets[3] != 3 || h.buckets[9] != 0 {
		t.Fatal("bucket counts wrong")
	}
	if h.Max() != 3 {
		t.Fatalf("Max = %d", h.Max())
	}
	if got := h.FractionAtMost(2); got != 0.5 {
		t.Fatalf("FractionAtMost(2) = %v", got)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Fatalf("P50 = %d", got)
	}
	if got := h.Percentile(0.99); got != 99 {
		t.Fatalf("P99 = %d", got)
	}
	if got := h.Percentile(1); got != 100 {
		t.Fatalf("P100 = %d", got)
	}
	var empty Histogram
	if empty.Percentile(0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{5, 1, 9, 2, 2, 7, 100, 3} {
		h.Observe(v)
	}
	f := func(a, b uint8) bool {
		pa, pb := float64(a)/255, float64(b)/255
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioAndSpeedup(t *testing.T) {
	if Ratio(1, 2) != 0.5 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio wrong")
	}
	if Speedup(100, 25) != 4 || Speedup(1, 0) != 0 {
		t.Fatal("Speedup wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "app", "value", "ratio")
	tb.AddRow("bzip2", 42, 0.215)
	tb.AddRow("lbm", 7, 4.0)
	out := tb.String()
	for _, want := range []string{"Demo", "app", "bzip2", "0.215", "lbm", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if tb.Cell(0, 0) != "bzip2" {
		t.Fatalf("Cell(0,0) = %q", tb.Cell(0, 0))
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(123.456)
	tb.AddRow(0.12345)
	tb.AddRow(3.0)
	if tb.Cell(0, 0) != "123.5" {
		t.Errorf("large float = %q", tb.Cell(0, 0))
	}
	if tb.Cell(1, 0) != "0.123" {
		t.Errorf("small float = %q", tb.Cell(1, 0))
	}
	if tb.Cell(2, 0) != "3" {
		t.Errorf("integral float = %q", tb.Cell(2, 0))
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("T", "app", "value")
	tb.AddRow("a,b", 1) // embedded comma must be quoted
	tb.AddRow("plain", 2.5)
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "app,value\n\"a,b\",1\nplain,2.500\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestWriteJSON(t *testing.T) {
	tb := NewTable("My Title", "x")
	tb.AddRow(42)
	var buf strings.Builder
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, frag := range []string{`"title":"My Title"`, `"columns":["x"]`, `"rows":[["42"]]`} {
		if !strings.Contains(got, frag) {
			t.Fatalf("JSON %q missing %q", got, frag)
		}
	}
}

func TestWriteDAT(t *testing.T) {
	tb := NewTable("Figure X", "app", "speed up")
	tb.AddRow("lbm", 4.5)
	tb.AddRow("two words", 1)
	tb.AddRow("empty", "")
	var buf strings.Builder
	if err := tb.WriteDAT(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{"# Figure X", `"app" "speed up"`, "lbm 4.500", `"two words" 1`, "empty -"} {
		if !strings.Contains(got, want) {
			t.Fatalf("DAT output %q missing %q", got, want)
		}
	}
}

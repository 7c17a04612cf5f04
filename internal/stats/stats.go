// Package stats provides the lightweight statistics primitives shared by the
// simulator components: scalar counters, running latency aggregates, and
// histograms over integer values.
//
// All types are plain values with useful zero states so they can be embedded
// directly in component structs without constructors.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"dewrite/internal/units"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.n += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio divides the counter by the total counter, returning 0 when the total
// is empty. It is the common "fraction of events" accessor.
func (c *Counter) Ratio(total *Counter) float64 {
	if total.n == 0 {
		return 0
	}
	return float64(c.n) / float64(total.n)
}

// Latency bucket geometry: a log-linear (HDR-style) histogram with
// latSubBuckets sub-buckets per power of two, so any percentile estimate is
// within 1/latSubBuckets (6.25 %) of the true value. Observations below
// latSubBuckets picoseconds are exact; observations at or above
// 2^(64-latSubBits) picoseconds (centuries of simulated time) saturate into
// the top bucket, with Min/Max still tracked exactly.
const (
	latSubBits    = 4
	latSubBuckets = 1 << latSubBits
	latNumBuckets = (64 - latSubBits) << latSubBits
)

// latBucket maps a duration to its histogram bucket index.
func latBucket(v uint64) int {
	if v < latSubBuckets {
		return int(v)
	}
	b := bits.Len64(v) // top bit position + 1, >= latSubBits+1
	idx := ((b - latSubBits) << latSubBits) | int((v>>(b-1-latSubBits))&(latSubBuckets-1))
	if idx >= latNumBuckets {
		return latNumBuckets - 1
	}
	return idx
}

// latBucketLow returns the smallest duration mapping to bucket i.
func latBucketLow(i int) uint64 {
	if i < latSubBuckets {
		return uint64(i)
	}
	major := i >> latSubBits
	sub := uint64(i & (latSubBuckets - 1))
	return (latSubBuckets | sub) << (major - 1)
}

// LatencyBucketCount returns the number of buckets in the Latency histogram
// geometry. Exported so other layers (the live monitor's Prometheus
// histograms) can derive log-spaced bucket boundaries from the same math the
// percentile estimates use instead of inventing a second geometry.
func LatencyBucketCount() int { return latNumBuckets }

// LatencySubBuckets returns the number of sub-buckets per power of two —
// the geometry's resolution (and therefore its relative error bound,
// 1/LatencySubBuckets).
func LatencySubBuckets() int { return latSubBuckets }

// LatencyBucketOf returns the bucket index Observe would file v under.
func LatencyBucketOf(v uint64) int { return latBucket(v) }

// LatencyBucketLow returns the smallest value mapping to bucket i — the
// bucket's inclusive lower bound, and bucket i-1's exclusive upper bound.
func LatencyBucketLow(i int) uint64 { return latBucketLow(i) }

// Latency accumulates a stream of durations and reports mean/min/max plus
// bucketed percentiles (p50/p95/p99). The zero value is ready to use; the
// embedded histogram is a fixed array, so Latency stays a plain value with a
// useful zero state.
type Latency struct {
	count   uint64
	sum     units.Duration
	min     units.Duration
	max     units.Duration
	buckets [latNumBuckets]uint32
}

// Observe records one duration.
func (l *Latency) Observe(d units.Duration) {
	if l.count == 0 || d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.count++
	l.sum += d
	b := &l.buckets[latBucket(uint64(d))]
	if *b < math.MaxUint32 { // saturate a single bucket rather than wrap
		*b++
	}
}

// Merge folds other's observations into l, as if every duration observed by
// other had been observed by l: counts and sums add, min/max combine, and
// histogram buckets add with the same single-bucket saturation Observe
// applies. Merging is commutative and associative, so aggregating per-shard
// latencies yields the same result in any order.
func (l *Latency) Merge(other *Latency) {
	if other.count == 0 {
		return
	}
	if l.count == 0 || other.min < l.min {
		l.min = other.min
	}
	if other.max > l.max {
		l.max = other.max
	}
	l.count += other.count
	l.sum += other.sum
	for i := range l.buckets {
		if other.buckets[i] == 0 {
			continue
		}
		s := uint64(l.buckets[i]) + uint64(other.buckets[i])
		if s > math.MaxUint32 {
			s = math.MaxUint32
		}
		l.buckets[i] = uint32(s)
	}
}

// Count returns the number of observations.
func (l *Latency) Count() uint64 { return l.count }

// Sum returns the total observed duration.
func (l *Latency) Sum() units.Duration { return l.sum }

// Mean returns the mean duration, or 0 with no observations.
func (l *Latency) Mean() units.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / units.Duration(l.count)
}

// Percentile returns the smallest bucketed duration x such that at least p
// (in [0,1]) of the observations are <= x, clamped to the exact observed
// [min, max] range. With no observations it returns 0. The estimate is exact
// below 16 ps and within 6.25 % above (see the bucket geometry).
func (l *Latency) Percentile(p float64) units.Duration {
	if l.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(math.Ceil(p * float64(l.count)))
	if need == 0 {
		need = 1
	}
	if need >= l.count {
		return l.max // the final rank is tracked exactly
	}
	var cum uint64
	for i := range l.buckets {
		cum += uint64(l.buckets[i])
		if cum >= need {
			v := units.Duration(latBucketLow(i))
			if v < l.min {
				v = l.min
			}
			if v > l.max {
				v = l.max
			}
			return v
		}
	}
	return l.max
}

// P50 returns the median observation.
func (l *Latency) P50() units.Duration { return l.Percentile(0.50) }

// P95 returns the 95th-percentile observation.
func (l *Latency) P95() units.Duration { return l.Percentile(0.95) }

// P99 returns the 99th-percentile observation.
func (l *Latency) P99() units.Duration { return l.Percentile(0.99) }

// Histogram counts occurrences of integer-valued observations. It is sparse:
// only observed values consume memory, so it works for both small enums
// (reference counts) and wide domains (wear per line).
type Histogram struct {
	buckets map[uint64]uint64
	count   uint64
	max     uint64
}

// Observe records one occurrence of v.
func (h *Histogram) Observe(v uint64) {
	if h.buckets == nil {
		h.buckets = make(map[uint64]uint64)
	}
	h.buckets[v]++
	h.count++
	if v > h.max {
		h.max = v
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// FractionAtMost returns the fraction of observations <= v.
func (h *Histogram) FractionAtMost(v uint64) float64 {
	if h.count == 0 {
		return 0
	}
	var n uint64
	for val, c := range h.buckets {
		if val <= v {
			n += c
		}
	}
	return float64(n) / float64(h.count)
}

// Percentile returns the smallest value x such that at least p (0..1) of the
// observations are <= x. With no observations it returns 0.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	vals := make([]uint64, 0, len(h.buckets))
	for v := range h.buckets {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	need := uint64(math.Ceil(p * float64(h.count)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for _, v := range vals {
		cum += h.buckets[v]
		if cum >= need {
			return v
		}
	}
	return vals[len(vals)-1]
}

// Ratio is a convenience for reporting a/b as a float, 0 when b == 0.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Speedup reports base/improved, the conventional "×" speedup, returning 0
// when the improved value is 0.
func Speedup(base, improved units.Duration) float64 {
	if improved == 0 {
		return 0
	}
	return float64(base) / float64(improved)
}

// Table is a simple fixed-column text table used by the experiment runners to
// print paper-style rows.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

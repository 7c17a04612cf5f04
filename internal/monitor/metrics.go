package monitor

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"dewrite/internal/stats"
)

// This file is the counter/histogram half of the registry: monotonic event
// counts and native Prometheus histograms, both label-aware through the same
// escaped-key discipline the gauges use. Like every instrumentation type in
// this repository the nil receiver is the disabled state — a nil *Counter or
// *Histogram absorbs observations for free, so callers hold them
// unconditionally.

// Counter is a monotonically increasing event count. Obtain one from
// Registry.Counter; the nil counter discards increments. Safe for concurrent
// use (atomic adds — increments are wait-free).
type Counter struct {
	n atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds n to the counter. Counters are monotonic: there is deliberately
// no way to subtract or reset, which is what lets scrapers take rates over
// deltas.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a pre-resolved handle on one registry gauge cell: the same
// last-write-wins float the name-based Set/SetLabeled methods reach, minus
// the per-operation key lookup (and, for labeled series, the label
// rendering). Hot paths — the serving daemon's queue-depth and drain-state
// updates — resolve the handle once at construction and store through it
// wait-free. Obtain one from Registry.Gauge; the nil gauge discards stores.
type Gauge struct {
	cell *uint64
}

// Gauge returns a handle on the named gauge cell, creating the cell on first
// use. Optional labels attach a Prometheus label set exactly as SetLabeled
// would. The nil registry returns the nil (disabled) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{cell: r.cell(labeledKey(name, labels))}
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(g.cell, floatBits(v))
}

// Value returns the gauge's current value (0 on the nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(atomic.LoadUint64(g.cell))
}

// Histogram is a fixed-boundary cumulative histogram over uint64
// observations, exposed in native Prometheus histogram form
// (name_bucket{le="..."} / name_sum / name_count). Obtain one from
// Registry.Histogram; the nil histogram discards observations. Safe for
// concurrent use: every bucket is an independent atomic cell, and scrapes
// derive _count from the bucket cells themselves so the le="+Inf" sample
// always equals _count even mid-update.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; +Inf bucket is implicit
	counts []uint64 // len(bounds)+1 cells, accessed atomically
	sum    atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	// Bucket i covers (bounds[i-1], bounds[i]]; le is inclusive per the
	// exposition format, so the first bound >= v wins.
	i := sort.Search(len(h.bounds), func(j int) bool { return v <= h.bounds[j] })
	atomic.AddUint64(&h.counts[i], 1)
	h.sum.Add(v)
}

// Count returns the total number of observations, computed from the bucket
// cells (the same way a scrape computes the le="+Inf" sample).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += atomic.LoadUint64(&h.counts[i])
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bounds returns the histogram's upper bounds (shared, do not mutate).
func (h *Histogram) Bounds() []uint64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// cumulative returns the per-bucket cumulative counts aligned with bounds,
// plus the +Inf total. Each cell is read atomically once, so the result is
// monotone by construction even while writers are racing.
func (h *Histogram) cumulative() (cum []uint64, total uint64) {
	if h == nil {
		return nil, 0
	}
	cum = make([]uint64, len(h.bounds))
	for i := range h.counts {
		total += atomic.LoadUint64(&h.counts[i])
		if i < len(cum) {
			cum[i] = total
		}
	}
	return cum, total
}

// LatencyBounds derives log-spaced histogram bucket boundaries from the
// stats.Latency bucket geometry: perOctave boundaries per power of two
// (1, 2, 4, 8 or 16 — it must divide the geometry's sub-bucket resolution),
// spanning [min, max]. Using the same math as the simulator's percentile
// estimates keeps the two latency surfaces comparable: a monitor bucket
// boundary is always one of the simulator's bucket lower bounds.
func LatencyBounds(min, max uint64, perOctave int) []uint64 {
	sub := stats.LatencySubBuckets()
	if perOctave < 1 || perOctave > sub || sub%perOctave != 0 {
		panic(fmt.Sprintf("monitor: %d bounds per octave does not divide the %d-sub-bucket geometry", perOctave, sub))
	}
	stride := sub / perOctave
	start := stats.LatencyBucketOf(min)
	start -= start % stride
	var bounds []uint64
	for i := start; i < stats.LatencyBucketCount(); i += stride {
		low := stats.LatencyBucketLow(i)
		if len(bounds) > 0 && low <= bounds[len(bounds)-1] {
			continue // the first sub-16 buckets collapse under coarse strides
		}
		bounds = append(bounds, low)
		if low >= max {
			break
		}
	}
	return bounds
}

// Counter returns the registered counter for name, creating it on first
// use. Optional labels attach a Prometheus label set; each distinct label
// set is its own series under one family. The nil registry returns the nil
// (disabled) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := labeledKey(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[key]; c == nil {
		c = new(Counter)
		r.counters[key] = c
	}
	return c
}

// Histogram returns the registered histogram for name, creating it with the
// given bucket bounds on first use (see LatencyBounds). Every series of one
// family shares the bounds of the first registration; later bounds are
// ignored so scrapes stay well-formed. The nil registry returns the nil
// (disabled) histogram.
func (r *Registry) Histogram(name string, bounds []uint64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := labeledKey(name, labels)
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[key]; h != nil {
		return h
	}
	if family, ok := r.histBounds[name]; ok {
		bounds = family
	} else {
		bounds = append([]uint64(nil), bounds...)
		r.histBounds[name] = bounds
	}
	h = newHistogram(bounds)
	r.hists[key] = h
	return h
}

// splitKey splits a registry key into its base name and pre-escaped label
// block ("" when unlabeled).
func splitKey(key string) (base, labels string) {
	if i := strings.IndexByte(key, 0); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// withLabel appends one pre-escaped label to a rendered label block.
func withLabel(block, key, value string) string {
	if block == "" {
		return "{" + key + `="` + value + `"}`
	}
	return block[:len(block)-1] + "," + key + `="` + value + `"}`
}

// sortedKeys returns m's keys sorted, grouping a family's series together
// (the NUL separator sorts before any printable rune, so "name" and
// "name\x00{...}" stay adjacent).
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeCounters renders every counter in text exposition format with one
// TYPE line per family.
func writeCounters(w io.Writer, counters map[string]*Counter) {
	typed := make(map[string]bool)
	for _, key := range sortedKeys(counters) {
		base, labels := splitKey(key)
		metric := "dewrite_" + sanitize(base)
		if !typed[metric] {
			typed[metric] = true
			fmt.Fprintf(w, "# TYPE %s counter\n", metric)
		}
		fmt.Fprintf(w, "%s%s %d\n", metric, labels, counters[key].Value())
	}
}

// writeHistograms renders every histogram in native Prometheus histogram
// exposition: cumulative _bucket samples with le labels, then _sum and
// _count. The le="+Inf" sample and _count are the same bucket-cell total,
// so they are equal by construction.
func writeHistograms(w io.Writer, hists map[string]*Histogram) {
	typed := make(map[string]bool)
	for _, key := range sortedKeys(hists) {
		base, labels := splitKey(key)
		metric := "dewrite_" + sanitize(base)
		if !typed[metric] {
			typed[metric] = true
			fmt.Fprintf(w, "# TYPE %s histogram\n", metric)
		}
		h := hists[key]
		cum, total := h.cumulative()
		for i, bound := range h.Bounds() {
			le := strconv.FormatUint(bound, 10)
			fmt.Fprintf(w, "%s_bucket%s %d\n", metric, withLabel(labels, "le", le), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", metric, withLabel(labels, "le", "+Inf"), total)
		fmt.Fprintf(w, "%s_sum%s %d\n", metric, labels, h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", metric, labels, total)
	}
}

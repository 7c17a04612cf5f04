// Package timeline is the simulator's temporal axis: an epoch-based
// time-series collector that samples component state at fixed boundaries
// (every N requests) so a run's evolution —
// wear accumulating, queues draining, dup-ratio locality shifting — is
// observable, not just its end-of-run scalars. It is the simulator's only
// time series.
//
// The collector follows the same contracts as the attribution recorder:
//
//   - nil-safe: a nil *Collector is the disabled collector, every method is
//     a single predictable branch, so hot paths carry it unconditionally;
//   - observational: sampling reads timestamps and counters the simulation
//     already computed, never advances the simulated clock, so a run's
//     Result is identical with and without a collector attached;
//   - zero-alloc in steady state: epochs live in a preallocated ring whose
//     slots (including their per-bank slices) are reused once the ring
//     wraps, and the wear-distribution scratch buffer is reused across
//     epochs.
//
// Components contribute via the Sampler interface (nvm.Device,
// metacache.Cache, dedup.Tables, core.Controller, the baselines); the sim
// harness drives Tick once per retired request.
package timeline

import (
	"math"
	"slices"

	"dewrite/internal/units"
)

// Epoch is one sampled point of the run's evolution. Counter fields are
// cumulative whole-run values at the moment the epoch closed (exports derive
// per-epoch deltas); gauge fields are instantaneous at that moment.
type Epoch struct {
	Index    uint64     // 0-based epoch number since the run started
	EndTime  units.Time // simulated time at which the epoch closed
	Requests uint64     // cumulative requests retired

	// Device state (filled by nvm.Device.SampleEpoch).
	DevReads  uint64  // cumulative array reads
	DevWrites uint64  // cumulative array writes
	EnergyPJ  float64 // cumulative memory-system energy
	BanksBusy int     // banks still servicing at EndTime (queue-depth gauge)
	NumBanks  int     // device bank count (occupancy denominator)

	// Wear distribution over the sampled line region (data lines when the
	// scheme knows its layout, the whole device otherwise).
	WearMax  uint64
	WearMean float64
	WearGini float64  // Gini coefficient of per-line wear (0 = even)
	WearCoV  float64  // coefficient of variation (stddev / mean)
	BankWear []uint64 // cumulative array writes per bank (heatmap rows)

	// Scheme state (filled by the controller/baseline SampleEpoch).
	Writes        uint64 // cumulative CPU write requests seen by the scheme
	DupEliminated uint64 // cumulative writes cancelled by deduplication
	ZeroWrites    uint64 // cumulative all-zero write payloads (harness count)
	MetaHits      uint64 // cumulative metadata-cache hits, all partitions
	MetaMisses    uint64
	DedupLive     uint64 // live (referenced) locations
	DedupMapped   uint64 // logical lines mapped away from their own slot

	// Fault and degradation gauges (cumulative; filled by the device's
	// SampleEpoch when the fault layer is armed, zero otherwise).
	FaultECP          uint64 // ECP corrections consumed
	FaultRemaps       uint64 // lines remapped to the spare region
	FaultStuck        uint64 // permanently stuck lines
	FaultFlips        uint64 // transient read bit flips injected
	FaultSpareUsed    uint64 // spare lines allocated
	FaultBanksRetired uint64 // banks past the stuck-line retirement limit
}

// reset clears an epoch slot for reuse, keeping its BankWear backing array.
func (e *Epoch) reset() {
	bw := e.BankWear[:0]
	*e = Epoch{BankWear: bw}
}

// Sampler is implemented by components that contribute state to an epoch.
// Implementations must only read their own counters and now; they must not
// advance simulated time or mutate simulation state.
type Sampler interface {
	SampleEpoch(e *Epoch, now units.Time)
}

// SamplerFunc adapts a function to the Sampler interface.
type SamplerFunc func(e *Epoch, now units.Time)

// SampleEpoch calls f.
func (f SamplerFunc) SampleEpoch(e *Epoch, now units.Time) { f(e, now) }

// DefaultMaxEpochs bounds the ring buffer: beyond it the oldest epochs are
// overwritten (and counted as dropped), so an arbitrarily long run cannot
// exhaust memory.
const DefaultMaxEpochs = 4096

// Collector accumulates epochs over one run. It is not safe for concurrent
// use — like every simulated component it lives on a single run's goroutine —
// but distinct runs own distinct collectors, so parallel suites need no
// sharing. The nil *Collector is the disabled collector.
type Collector struct {
	every uint64 // requests per epoch
	next  uint64 // request count at which the next epoch closes

	ring   []Epoch
	max    int
	closed uint64 // total epochs ever closed (ring may hold fewer)

	// OnEpoch, when non-nil, observes each epoch immediately after it closes
	// — the live-monitoring hook. The *Epoch is only valid during the call
	// (ring slots are reused); observers must copy what they keep.
	OnEpoch func(*Epoch)
}

// NewByRequests returns a collector closing an epoch every `every` requests,
// keeping at most maxEpochs (DefaultMaxEpochs when maxEpochs <= 0).
func NewByRequests(every uint64, maxEpochs int) *Collector {
	if every == 0 {
		every = 1
	}
	if maxEpochs <= 0 {
		maxEpochs = DefaultMaxEpochs
	}
	return &Collector{every: every, next: every, max: maxEpochs}
}

// Enabled reports whether the collector actually records.
func (c *Collector) Enabled() bool { return c != nil }

// Every returns the boundary period in requests.
func (c *Collector) Every() uint64 {
	if c == nil {
		return 0
	}
	return c.every
}

// Tick is the per-request hook: called once after each retired request with
// the cumulative request count and the latest completion time, it closes an
// epoch whenever a boundary has been crossed. src may be nil (an epoch with
// only the harness-level fields).
func (c *Collector) Tick(now units.Time, requests uint64, src Sampler) {
	if c == nil || requests < c.next {
		return
	}
	c.close(now, requests, src)
	for c.next += c.every; requests >= c.next; {
		c.next += c.every
	}
}

// Finish closes one final epoch at the end of a run if any requests retired
// since the last boundary, so the series always covers the whole run.
func (c *Collector) Finish(now units.Time, requests uint64, src Sampler) {
	if c == nil {
		return
	}
	if n := c.Len(); n > 0 {
		last := c.at(n - 1)
		if last.Requests == requests {
			return // the final boundary coincided with the end of the run
		}
	} else if requests == 0 {
		return
	}
	c.close(now, requests, src)
}

// close seals one epoch: claims a ring slot, stamps the harness fields, and
// lets the source fill component state.
func (c *Collector) close(now units.Time, requests uint64, src Sampler) {
	var e *Epoch
	if len(c.ring) < c.max {
		c.ring = append(c.ring, Epoch{})
		e = &c.ring[len(c.ring)-1]
	} else {
		e = &c.ring[c.closed%uint64(c.max)]
		e.reset()
	}
	e.Index = c.closed
	e.EndTime = now
	e.Requests = requests
	if src != nil {
		src.SampleEpoch(e, now)
	}
	c.closed++
	if c.OnEpoch != nil {
		c.OnEpoch(e)
	}
}

// Len returns the number of epochs currently held (bounded by the ring).
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.ring)
}

// Closed returns the total number of epochs ever closed.
func (c *Collector) Closed() uint64 {
	if c == nil {
		return 0
	}
	return c.closed
}

// Dropped returns how many early epochs the ring has overwritten.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	return c.closed - uint64(len(c.ring))
}

// at returns the i-th oldest held epoch.
func (c *Collector) at(i int) *Epoch {
	if uint64(len(c.ring)) < c.closed {
		// Ring wrapped: the oldest slot is the one close would claim next.
		return &c.ring[(c.closed+uint64(i))%uint64(c.max)]
	}
	return &c.ring[i]
}

// Epochs returns a copy of the held epochs in chronological order.
func (c *Collector) Epochs() []Epoch {
	if c == nil {
		return nil
	}
	out := make([]Epoch, c.Len())
	for i := range out {
		e := c.at(i)
		out[i] = *e
		out[i].BankWear = append([]uint64(nil), e.BankWear...)
	}
	return out
}

// Dist summarizes a set of per-line wear counts: the maximum, mean, Gini
// coefficient and coefficient of variation. vals is sorted in place. An
// empty set yields all zeros.
func Dist(vals []uint64) (max uint64, mean, gini, cov float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0, 0
	}
	slices.Sort(vals)
	max = vals[n-1]
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	mean = sum / float64(n)
	if sum == 0 {
		return max, mean, 0, 0
	}
	// Gini over sorted values: sum_i (2i - n + 1) x_i / (n * sum).
	var g float64
	for i, v := range vals {
		g += float64(2*i-n+1) * float64(v)
	}
	gini = g / (float64(n) * sum)
	var sq float64
	for _, v := range vals {
		d := float64(v) - mean
		sq += d * d
	}
	cov = math.Sqrt(sq/float64(n)) / mean
	return max, mean, gini, cov
}

// DistHist computes the same summary as Dist, but from a value→count
// histogram of the multiset rather than the expanded values — O(distinct)
// instead of O(elements), which is what lets a device keep its wear
// histogram incrementally and sample epochs without scanning every line.
// scratch is reused to sort the distinct values; pass the previous return
// value back in to stay allocation-free in steady state.
func DistHist(hist map[uint64]uint64, scratch []uint64) (max uint64, mean, gini, cov float64, scratchOut []uint64) {
	scratch = scratch[:0]
	var n uint64
	for v, c := range hist {
		if c == 0 {
			continue
		}
		scratch = append(scratch, v)
		n += c
	}
	if n == 0 {
		return 0, 0, 0, 0, scratch
	}
	slices.Sort(scratch)
	max = scratch[len(scratch)-1]
	var sum float64
	for _, v := range scratch {
		sum += float64(v) * float64(hist[v])
	}
	mean = sum / float64(n)
	if sum == 0 {
		return max, mean, 0, 0, scratch
	}
	// A group of c equal values v occupying 0-indexed ranks s..s+c-1
	// contributes v * sum_{i=s}^{s+c-1} (2i - n + 1) = v*c*(2s + c - n)
	// to the Gini numerator, so the grouped form matches Dist exactly.
	var g, sq float64
	var s uint64
	for _, v := range scratch {
		c := hist[v]
		g += float64(v) * float64(c) * (float64(2*s+c) - float64(n))
		d := float64(v) - mean
		sq += float64(c) * d * d
		s += c
	}
	gini = g / (float64(n) * sum)
	cov = math.Sqrt(sq/float64(n)) / mean
	return max, mean, gini, cov, scratch
}

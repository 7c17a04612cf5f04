package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names and units (benchmark_test.go keeps the two in step).
type metricDef struct {
	name, unit string
	// only names the one workload that measures the metric; the others
	// report 0. Empty means every workload measures it.
	only string
}

// endToEnd are the metrics a user of each workload sees, measured untraced.
// ops_per_s counts simulated memory requests for sim-* and suite-quick
// (the suite's memoised simulation passes × requests per pass) and client
// requests for serve-mixed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "ops/s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the traced run's metrics, named after the repository's
// packages. Every time-valued metric is measured on every workload, over
// that workload's own inputs; the workload-specific outer layers
// (experiments, serve) are reported as shares and counts.
var perLayer = []metricDef{
	// Input generation and the simulation harness around the controller.
	{name: "workload.next_ns", unit: "ns"},
	{name: "sim.harness_ns", unit: "ns"},
	{name: "sim.allocs_per_req", unit: "count"},
	{name: "sim.trace_overhead_frac", unit: "ratio"},
	{name: "process.cpu_us_per_op", unit: "us"},

	// The controller, timed per call, and what its stages leave unexplained.
	{name: "core.write_unique_ns", unit: "ns"},
	{name: "core.write_unique_residual_ns", unit: "ns"},
	{name: "core.write_dup_ns", unit: "ns"},
	{name: "core.write_dup_residual_ns", unit: "ns"},
	{name: "core.read_ns", unit: "ns"},

	// The stages a write crosses, timed in batches over captured payloads.
	{name: "hashes.crc32_ns", unit: "ns"},
	{name: "cme.encrypt_line_ns", unit: "ns"},
	{name: "cme.decrypt_line_ns", unit: "ns"},
	{name: "dedup.candidates_ns", unit: "ns"},
	{name: "nvm.write_ns", unit: "ns"},
	{name: "nvm.read_ns", unit: "ns"},
	{name: "metacache.lookup_ns", unit: "ns"},
	{name: "shard.publish_ns", unit: "ns"},
	{name: "shard.advance_us", unit: "us"},

	// Request latency at the workload's client: the TCP client for
	// serve-mixed, the harness's memory call for the others.
	{name: "client.put_p50_us", unit: "us"},
	{name: "client.put_p99_us", unit: "us"},
	{name: "client.get_p50_us", unit: "us"},
	{name: "client.get_p99_us", unit: "us"},
	{name: "client.put_samples", unit: "count"},
	{name: "client.get_samples", unit: "count"},

	// Exact counts: a pure speed-up must leave every one unchanged.
	{name: "core.dedup_ratio", unit: "ratio"},
	{name: "core.aes_lines_per_req", unit: "count"},
	{name: "core.aes_wasted_frac", unit: "ratio"},
	{name: "core.compares_per_dup", unit: "count"},
	{name: "predict.accuracy", unit: "ratio"},
	{name: "metacache.lookups_per_req", unit: "count"},
	{name: "metacache.hash.hit_rate", unit: "ratio"},
	{name: "metacache.addrmap.hit_rate", unit: "ratio"},
	{name: "metacache.invhash.hit_rate", unit: "ratio"},
	{name: "metacache.fsm.hit_rate", unit: "ratio"},
	{name: "nvm.device_writes_per_req", unit: "count"},

	// The experiment engine: shares of the suite's wall time.
	{name: "experiments.prefill_share", unit: "ratio", only: "suite-quick"},
	{name: "experiments.fig21_share", unit: "ratio", only: "suite-quick"},
	{name: "experiments.fig13_share", unit: "ratio", only: "suite-quick"},
	{name: "experiments.abl-cachescale_share", unit: "ratio", only: "suite-quick"},
	{name: "experiments.faultcampaign_share", unit: "ratio", only: "suite-quick"},
	{name: "experiments.rest_share", unit: "ratio", only: "suite-quick"},
	{name: "experiments.critical_path_frac", unit: "ratio", only: "suite-quick"},
	{name: "experiments.allocs_per_req", unit: "count", only: "suite-quick"},

	// The daemon: where a request's time goes, barrier pressure, outcomes.
	{name: "serve.server_put_share", unit: "ratio", only: "serve-mixed"},
	{name: "serve.server_get_share", unit: "ratio", only: "serve-mixed"},
	{name: "serve.client_encode_share", unit: "ratio", only: "serve-mixed"},
	{name: "serve.client_decode_share", unit: "ratio", only: "serve-mixed"},
	{name: "serve.advance_share", unit: "ratio", only: "serve-mixed"},
	{name: "serve.advances_per_kreq", unit: "count", only: "serve-mixed"},
	{name: "serve.barrier_stall_share", unit: "ratio", only: "serve-mixed"},
	{name: "serve.shed_frac", unit: "ratio", only: "serve-mixed"},
	{name: "serve.dedup_ratio", unit: "ratio", only: "serve-mixed"},
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs by the method of
// Python's statistics.quantiles(vs, n=4) (the default, exclusive method).
// With fewer than two values both are the single value (or 0).
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		m := median(vs)
		return m, m
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of vs, which it
// sorts in place.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(p*float64(len(vs)))) - 1
	return vs[max(0, min(i, len(vs)-1))]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

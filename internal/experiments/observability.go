package experiments

import (
	"dewrite/internal/sim"
	"dewrite/internal/stats"
)

// tailSchemes is the scheme set the tail-latency table compares: the paper's
// normalization baseline against the three DeWrite variants.
var tailSchemes = []sim.Scheme{
	sim.SchemeSecureNVM, sim.SchemeDirect, sim.SchemeParallel, sim.SchemeDeWrite,
}

// TailLatency tabulates the percentile read and write latencies of every
// scheme over the ablation applications. The mean figures (14 and 16) hide
// the queueing tail; this table shows where deduplication helps most — the
// p95/p99 writes that would otherwise wait behind full bank queues.
func TailLatency(s *Suite) []*stats.Table {
	tb := stats.NewTable("Tail latency (simulated time)",
		"app", "scheme",
		"write p50", "write p95", "write p99",
		"read p50", "read p95", "read p99")
	for _, prof := range s.ablationApps() {
		for _, sch := range tailSchemes {
			r := s.Run(sch, prof)
			tb.AddRow(prof.Name, sch.String(),
				r.P50WriteLat.String(), r.P95WriteLat.String(), r.P99WriteLat.String(),
				r.P50ReadLat.String(), r.P95ReadLat.String(), r.P99ReadLat.String())
		}
	}
	return []*stats.Table{tb}
}

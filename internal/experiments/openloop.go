package experiments

import (
	"dewrite/internal/config"
	"dewrite/internal/memctrl"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
	"dewrite/internal/units"
)

// AblationOpenLoop measures the speedups under an open-loop arrival model —
// the trace-driven methodology of the paper's NVMain setup, where arrivals
// are fixed by the trace rather than throttled by a stalling CPU. It builds
// each application's memory-level request schedule once, derives the device
// traffic each scheme would issue (baseline: everything; DeWrite: reads,
// surviving writes, and one verify read per non-zero duplicate), and
// services both through the event-driven controller under FR-FCFS.
//
// Under this model the write/read speedups reach the paper's magnitudes:
// when the offered write load sits near or beyond the banks' service rate,
// eliminating half the writes collapses the queues nonlinearly.
func AblationOpenLoop(s *Suite) []*stats.Table {
	t := stats.NewTable("Ablation: open-loop (trace-driven) speedups under FR-FCFS",
		"app", "write speedup", "read speedup", "base mean write", "DW mean write",
		"base mean read", "DW mean read")

	cfg := memctrl.DefaultConfig()
	cycle := units.NewClock(2_000_000_000).Period()

	var wspd, rspd []float64
	for _, prof := range s.Opts.Profiles() {
		var baseReqs, dwReqs []memctrl.Request
		var now units.Time
		demand := make([]units.Duration, cfg.Banks) // baseline demand per bank
		prep := s.Prepared(prof)
		for i := range prep.Requests {
			req := &prep.Requests[i]
			now = now.Add(units.Duration(req.Gap+1) * cycle)
			bank := config.BankOf(req.Addr, cfg.RowLines, cfg.Banks)
			if req.Op == trace.Write {
				demand[bank] += cfg.Timing.NVMWrite
			} else {
				demand[bank] += cfg.Timing.NVMRead
			}
			if req.Op == trace.Read {
				r := memctrl.Request{Arrive: now, Op: memctrl.Read, Addr: req.Addr}
				baseReqs = append(baseReqs, r)
				dwReqs = append(dwReqs, r)
				continue
			}
			baseReqs = append(baseReqs, memctrl.Request{Arrive: now, Op: memctrl.Write, Addr: req.Addr})
			isDup := prep.Duplicate(i)
			switch {
			case isDup && config.IsZeroLine(req.Data):
				// Zero fast path: no device traffic at all.
			case isDup:
				// The verify read of the candidate line.
				dwReqs = append(dwReqs, memctrl.Request{Arrive: now, Op: memctrl.Read, Addr: req.Addr})
			default:
				dwReqs = append(dwReqs, memctrl.Request{Arrive: now, Op: memctrl.Write, Addr: req.Addr})
			}
		}

		// Pace the arrival schedule so the baseline's *hottest bank* runs at
		// 65 % utilization — a loaded but stable system, the regime
		// trace-driven simulators measure in. Both schemes replay the
		// identical schedule.
		span := baseReqs[len(baseReqs)-1].Arrive.Sub(baseReqs[0].Arrive)
		var hottest units.Duration
		for _, d := range demand {
			if d > hottest {
				hottest = d
			}
		}
		target := units.Duration(float64(hottest) / 0.65)
		if span > 0 {
			scale := float64(target) / float64(span)
			for i := range baseReqs {
				baseReqs[i].Arrive = units.Time(float64(baseReqs[i].Arrive) * scale)
			}
			for i := range dwReqs {
				dwReqs[i].Arrive = units.Time(float64(dwReqs[i].Arrive) * scale)
			}
		}

		base := memctrl.Summarize(memctrl.Simulate(baseReqs, cfg))
		dw := memctrl.Summarize(memctrl.Simulate(dwReqs, cfg))

		// DeWrite's write latency covers the surviving writes plus the
		// near-free eliminated ones (detection only, ≈16–92 ns); attribute
		// the eliminated writes the duplicate-detection latency so the
		// comparison covers the same CPU write count, as Figure 14 does.
		elim := base.Writes - dw.Writes
		detect := cfg.Timing.CRC32 + cfg.Timing.NVMRead + cfg.Timing.Compare
		dwWriteTotal := dw.TotalWriteLat + units.Duration(elim)*detect
		dwWriteMean := dwWriteTotal / units.Duration(max64(base.Writes, 1))

		ws := stats.Speedup(base.TotalWriteLat, dwWriteTotal)
		rs := stats.Speedup(base.TotalReadLat, dw.TotalReadLat)
		t.AddRow(prof.Name, ws, rs,
			base.MeanWriteLat.String(), dwWriteMean.String(),
			base.MeanReadLat.String(), dw.MeanReadLat.String())
		wspd = append(wspd, ws)
		rspd = append(rspd, rs)
	}
	t.AddRow("average", mean(wspd), mean(rspd), "", "", "", "")
	return []*stats.Table{t}
}

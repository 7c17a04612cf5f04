package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"dewrite/internal/sim"
)

// diffOptions configures the comparison.
type diffOptions struct {
	Threshold     float64 // deterministic metrics
	TimeThreshold float64 // host wall-clock metrics
	IncludeHost   bool    // compare host-dependent table columns
}

// finding is one metric whose delta crossed its threshold.
type finding struct {
	Metric     string
	Old, New   float64
	Delta      float64 // relative: (new-old)/old
	Regression bool    // true when the delta is in the metric's bad direction
	Note       string  // non-numeric mismatches carry the detail here
}

func (f finding) String() string {
	if f.Note != "" {
		return fmt.Sprintf("%s: %s", f.Metric, f.Note)
	}
	arrow := "worsened"
	if !f.Regression {
		arrow = "changed"
	}
	return fmt.Sprintf("%s %s %+.1f%% (%.6g -> %.6g)", f.Metric, arrow, f.Delta*100, f.Old, f.New)
}

// schemaOf sniffs the schema field without committing to a layout.
func schemaOf(blob []byte) (string, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(blob, &head); err != nil {
		return "", err
	}
	if head.Schema == "" {
		return "", fmt.Errorf("no schema field")
	}
	return head.Schema, nil
}

// benchSchemaPrefix matches every dewrite/bench schema revision (v1, v2).
// Bench documents only ever grow fields — v2 added perf.scaling — so any
// revision pair compares, with missing optional blocks noted, not diffed.
const benchSchemaPrefix = "dewrite/bench/"

// diff compares two documents of the same kind. It returns the findings and
// the number of metrics examined.
func diff(oldBlob, newBlob []byte, opts diffOptions) ([]finding, int, error) {
	oldSchema, err := schemaOf(oldBlob)
	if err != nil {
		return nil, 0, fmt.Errorf("baseline: %w", err)
	}
	newSchema, err := schemaOf(newBlob)
	if err != nil {
		return nil, 0, fmt.Errorf("current: %w", err)
	}
	oldBench := strings.HasPrefix(oldSchema, benchSchemaPrefix)
	newBench := strings.HasPrefix(newSchema, benchSchemaPrefix)
	if oldBench != newBench {
		return nil, 0, fmt.Errorf("mixed kinds: %q vs %q", oldSchema, newSchema)
	}
	d := &differ{opts: opts}
	if oldBench {
		err = d.bench(oldBlob, newBlob)
	} else {
		err = d.run(oldBlob, newBlob)
	}
	if err != nil {
		return nil, 0, err
	}
	return d.found, d.compared, nil
}

type differ struct {
	opts     diffOptions
	compared int // metrics examined, for the summary line
	found    []finding
}

// compare records one numeric metric. dir is the bad direction: +1 when
// higher is worse (latency, energy, allocations), -1 when lower is worse
// (IPC, speedup), 0 when any move beyond the threshold is suspect
// (deterministic table cells).
func (d *differ) compare(metric string, oldV, newV, threshold float64, dir int) {
	d.compared++
	if oldV == newV {
		return
	}
	var delta float64
	if oldV != 0 {
		delta = (newV - oldV) / oldV
	} else {
		delta = 1 // appeared from zero: always beyond any sane threshold
	}
	abs := delta
	if abs < 0 {
		abs = -abs
	}
	if abs <= threshold {
		return
	}
	regression := dir == 0 || (dir > 0 && delta > 0) || (dir < 0 && delta < 0)
	d.found = append(d.found, finding{Metric: metric, Old: oldV, New: newV, Delta: delta, Regression: regression})
}

// wallFloorMS is the smallest wall-clock change flagged: a sub-millisecond
// experiment can double between two runs of identical code, and a relative
// threshold alone would call that a regression.
const wallFloorMS = 1.0

// compareWall records one host wall-clock metric in milliseconds: flagged
// only when its change is at least wallFloorMS as well as beyond
// -time-threshold.
func (d *differ) compareWall(metric string, oldMS, newMS float64) {
	if math.Abs(newMS-oldMS) < wallFloorMS {
		d.compared++
		return
	}
	d.compare(metric, oldMS, newMS, d.opts.TimeThreshold, +1)
}

// ---- run-report mode ----

// section decides whether an optional report block (timeline, faults,
// attribution) can be diffed: both sides present → yes; one side missing (an
// older-schema or differently-collected report) → a non-regression note, never
// a diff against zeros; both missing → nothing to say.
func (d *differ) section(name string, oldHas, newHas bool) bool {
	switch {
	case oldHas && newHas:
		return true
	case oldHas:
		d.found = append(d.found, finding{Metric: name,
			Note: "present only in baseline (current report lacks the block) — skipped"})
	case newHas:
		d.found = append(d.found, finding{Metric: name,
			Note: "present only in current (baseline report lacks the block) — skipped"})
	}
	return false
}

// run compares two dewrite/run reports (v1 through v5): the paper's quality
// metrics, all deterministic. The optional timeline, faults and attribution
// blocks are compared only when both reports carry them (see section).
func (d *differ) run(oldBlob, newBlob []byte) error {
	oldR, err := sim.DecodeRunReport(oldBlob)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	newR, err := sim.DecodeRunReport(newBlob)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	if oldR.App != newR.App || oldR.Scheme != newR.Scheme {
		d.found = append(d.found, finding{
			Metric:     "run",
			Note:       fmt.Sprintf("comparing %s/%s against %s/%s", oldR.App, oldR.Scheme, newR.App, newR.Scheme),
			Regression: true,
		})
	}
	th := d.opts.Threshold
	lat := func(prefix string, o, n sim.LatencyQuantiles) {
		d.compare(prefix+".mean", float64(o.MeanPs), float64(n.MeanPs), th, +1)
		d.compare(prefix+".p50", float64(o.P50Ps), float64(n.P50Ps), th, +1)
		d.compare(prefix+".p95", float64(o.P95Ps), float64(n.P95Ps), th, +1)
		d.compare(prefix+".p99", float64(o.P99Ps), float64(n.P99Ps), th, +1)
		d.compare(prefix+".sum", float64(o.SumPs), float64(n.SumPs), th, +1)
	}
	lat("write_latency", oldR.WriteLatency, newR.WriteLatency)
	lat("read_latency", oldR.ReadLatency, newR.ReadLatency)
	d.compare("ipc", oldR.IPC, newR.IPC, th, -1)
	d.compare("energy_pj", oldR.EnergyPJ, newR.EnergyPJ, th, +1)
	d.compare("device.writes", float64(oldR.Device.Writes), float64(newR.Device.Writes), th, +1)
	d.compare("elapsed_ps", float64(oldR.ElapsedPs), float64(newR.ElapsedPs), th, +1)

	if d.section("timeline", oldR.Timeline != nil, newR.Timeline != nil) {
		o, n := oldR.Timeline, newR.Timeline
		d.compare("timeline.epochs", float64(len(o.Epochs)), float64(len(n.Epochs)), th, 0)
		if len(o.Epochs) > 0 && len(n.Epochs) > 0 {
			ol, nl := o.Epochs[len(o.Epochs)-1], n.Epochs[len(n.Epochs)-1]
			d.compare("timeline.final.wear_max", float64(ol.WearMax), float64(nl.WearMax), th, +1)
			d.compare("timeline.final.wear_gini", ol.WearGini, nl.WearGini, th, +1)
		}
	}
	if d.section("faults", oldR.Faults != nil, newR.Faults != nil) {
		o, n := oldR.Faults.Device, newR.Faults.Device
		d.compare("faults.worn_writes", float64(o.WornWrites), float64(n.WornWrites), th, +1)
		d.compare("faults.ecp_corrections", float64(o.ECPCorrections), float64(n.ECPCorrections), th, +1)
		d.compare("faults.remaps", float64(o.Remaps), float64(n.Remaps), th, +1)
		d.compare("faults.stuck_lines", float64(o.StuckLines), float64(n.StuckLines), th, +1)
		d.compare("faults.transient_bit_flips", float64(o.TransientBitFlips), float64(n.TransientBitFlips), th, 0)
		if d.section("faults.crash", oldR.Faults.Crash != nil, newR.Faults.Crash != nil) {
			oc, nc := oldR.Faults.Crash, newR.Faults.Crash
			d.compare("faults.crash.lost_mappings", float64(oc.LostMappings), float64(nc.LostMappings), th, +1)
			d.compare("faults.crash.recovered_mappings", float64(oc.RecoveredMappings), float64(nc.RecoveredMappings), th, -1)
			d.compare("faults.crash.poisoned_lines", float64(oc.PoisonedLines), float64(nc.PoisonedLines), th, +1)
		}
	}
	if d.section("attribution", oldR.Attribution != nil, newR.Attribution != nil) {
		o, n := oldR.Attribution, newR.Attribution
		if o.SamplePeriod != n.SamplePeriod {
			d.found = append(d.found, finding{Metric: "attribution.sample_period",
				Note: fmt.Sprintf("sample periods differ (%d vs %d) — sampled phase totals not comparable, skipped",
					o.SamplePeriod, n.SamplePeriod)})
		}
		d.compare("attribution.total_line_writes", float64(o.TotalLineWrites), float64(n.TotalLineWrites), th, +1)
		d.compare("attribution.energy_pj", o.EnergyPJ, n.EnergyPJ, th, +1)
		// Per-cause write counters matched by cause name: more writes of any
		// provenance is the bad direction (wear and energy). Causes only one
		// side knows (a newer taxonomy) are left alone.
		oldCauses := make(map[string]uint64, len(o.Causes))
		for _, c := range o.Causes {
			oldCauses[c.Cause] = c.Writes
		}
		for _, nc := range n.Causes {
			ow, ok := oldCauses[nc.Cause]
			if !ok {
				continue
			}
			d.compare("attribution.writes."+nc.Cause, float64(ow), float64(nc.Writes), th, +1)
		}
	}
	return nil
}

// ---- bench-file mode ----

// benchDoc mirrors the dewrite/bench/v1..v2 layout loosely: only the fields
// the comparison consumes, so the real writer can grow fields freely.
type benchDoc struct {
	Schema   string `json:"schema"`
	Quick    bool   `json:"quick"`
	Requests int    `json:"requests"`
	Warmup   int    `json:"warmup"`
	Seed     uint64 `json:"seed"`
	Perf     *struct {
		Workers          int     `json:"workers"`
		WallMS           float64 `json:"wall_ms"`
		Mallocs          float64 `json:"mallocs"`
		AllocsPerRequest float64 `json:"allocs_per_request"`
		SeqWallMS        float64 `json:"seq_wall_ms"`
		Speedup          float64 `json:"speedup"`
		Scaling          []struct {
			Workers int     `json:"workers"`
			WallMS  float64 `json:"wall_ms"`
			Speedup float64 `json:"speedup"`
		} `json:"scaling"`
	} `json:"perf"`
	Experiments []struct {
		ID     string  `json:"id"`
		WallMS float64 `json:"wall_ms"`
		Tables []struct {
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	} `json:"experiments"`
}

// bench compares two benchmark snapshots: the perf block, per-experiment
// wall clocks, and every matched table cell.
func (d *differ) bench(oldBlob, newBlob []byte) error {
	var oldB, newB benchDoc
	if err := json.Unmarshal(oldBlob, &oldB); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(newBlob, &newB); err != nil {
		return fmt.Errorf("current: %w", err)
	}
	if oldB.Requests != newB.Requests || oldB.Warmup != newB.Warmup ||
		oldB.Seed != newB.Seed || oldB.Quick != newB.Quick {
		d.found = append(d.found, finding{
			Metric: "config",
			Note: fmt.Sprintf("snapshots use different configs (requests %d/%d, warmup %d/%d, seed %d/%d, quick %v/%v) — deltas may be meaningless",
				oldB.Requests, newB.Requests, oldB.Warmup, newB.Warmup, oldB.Seed, newB.Seed, oldB.Quick, newB.Quick),
			Regression: true,
		})
	}
	th, tt := d.opts.Threshold, d.opts.TimeThreshold
	if oldB.Perf != nil && newB.Perf != nil {
		d.compareWall("perf.wall_ms", oldB.Perf.WallMS, newB.Perf.WallMS)
		d.compareWall("perf.seq_wall_ms", oldB.Perf.SeqWallMS, newB.Perf.SeqWallMS)
		d.compare("perf.allocs_per_request", oldB.Perf.AllocsPerRequest, newB.Perf.AllocsPerRequest, th, +1)
		d.compare("perf.mallocs", oldB.Perf.Mallocs, newB.Perf.Mallocs, th, +1)
		if oldB.Perf.Workers == newB.Perf.Workers {
			d.compare("perf.speedup", oldB.Perf.Speedup, newB.Perf.Speedup, tt, -1)
		}
	}
	// The v2 scaling curve: points pair by worker count, wall clock gated
	// with the loose host threshold, speedup direction-aware (a drop means
	// the hot loop stopped converting workers into wall clock). A side
	// without the curve — a v1 baseline, or a run without -speedup — gets a
	// skip note instead of a diff against zeros.
	oldScaling := oldB.Perf != nil && len(oldB.Perf.Scaling) > 0
	newScaling := newB.Perf != nil && len(newB.Perf.Scaling) > 0
	if d.section("perf.scaling", oldScaling, newScaling) {
		oldPts := make(map[int]int, len(oldB.Perf.Scaling))
		for i, p := range oldB.Perf.Scaling {
			oldPts[p.Workers] = i
		}
		for _, np := range newB.Perf.Scaling {
			oi, ok := oldPts[np.Workers]
			if !ok {
				continue // new ladder rung: nothing to regress against
			}
			op := oldB.Perf.Scaling[oi]
			prefix := fmt.Sprintf("perf.scaling[%dw]", np.Workers)
			d.compareWall(prefix+".wall_ms", op.WallMS, np.WallMS)
			d.compare(prefix+".speedup", op.Speedup, np.Speedup, tt, -1)
		}
	}

	oldExps := make(map[string]int, len(oldB.Experiments))
	for i, e := range oldB.Experiments {
		oldExps[e.ID] = i
	}
	for _, ne := range newB.Experiments {
		oi, ok := oldExps[ne.ID]
		if !ok {
			continue // new experiment: nothing to regress against
		}
		oe := oldB.Experiments[oi]
		d.compareWall("exp."+ne.ID+".wall_ms", oe.WallMS, ne.WallMS)

		oldTables := make(map[string]int, len(oe.Tables))
		for i, tb := range oe.Tables {
			oldTables[tb.Title] = i
		}
		for _, nt := range ne.Tables {
			ti, ok := oldTables[nt.Title]
			if !ok {
				continue
			}
			d.table("exp."+ne.ID, oe.Tables[ti], nt)
		}
	}
	return nil
}

// table compares two same-titled tables cell by cell: rows are matched by
// their first column (the n-th "mcf" row pairs with the n-th "mcf" row, since
// ablation tables repeat the app label across parameter sweeps), columns by
// header. Host-dependent columns (marked "this host" by the bench writer) are
// skipped unless -include-host.
func (d *differ) table(prefix string, oldT, newT struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}) {
	oldRows := make(map[string][][]string, len(oldT.Rows))
	for _, row := range oldT.Rows {
		if len(row) > 0 {
			oldRows[row[0]] = append(oldRows[row[0]], row)
		}
	}
	oldCols := make(map[string]int, len(oldT.Columns))
	for i, c := range oldT.Columns {
		oldCols[c] = i
	}
	seen := make(map[string]int, len(newT.Rows))
	for _, newRow := range newT.Rows {
		if len(newRow) == 0 {
			continue
		}
		nth := seen[newRow[0]]
		seen[newRow[0]]++
		candidates := oldRows[newRow[0]]
		if nth >= len(candidates) {
			continue // row has no same-ranked counterpart
		}
		oldRow := candidates[nth]
		for ci := 1; ci < len(newRow) && ci < len(newT.Columns); ci++ {
			col := newT.Columns[ci]
			oi, ok := oldCols[col]
			if !ok || oi >= len(oldRow) {
				continue
			}
			if !d.opts.IncludeHost && strings.Contains(col, "this host") {
				continue
			}
			metric := fmt.Sprintf("%s[%s][%s/%s]", prefix, newT.Title, newRow[0], col)
			oldV, oldNum := cellValue(oldRow[oi])
			newV, newNum := cellValue(newRow[ci])
			switch {
			case oldNum && newNum:
				d.compare(metric, oldV, newV, d.opts.Threshold, 0)
			case oldRow[oi] != newRow[ci]:
				d.compared++
				d.found = append(d.found, finding{
					Metric:     metric,
					Note:       fmt.Sprintf("cell changed %q -> %q", oldRow[oi], newRow[ci]),
					Regression: true,
				})
			default:
				d.compared++
			}
		}
	}
}

// cellValue parses the leading number of a table cell ("321ns" -> 321,
// "54.2%" -> 54.2); the remainder must be a short unit suffix, otherwise the
// cell is treated as text.
func cellValue(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	end := 0
	for end < len(s) {
		c := s[end]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
			c == 'e' || c == 'E' {
			end++
			continue
		}
		break
	}
	if end == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, false
	}
	if rest := s[end:]; len(rest) > 4 { // longer tail than a unit: text cell
		return 0, false
	}
	return v, true
}

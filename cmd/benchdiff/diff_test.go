package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func load(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

var defaultOpts = diffOptions{Threshold: 0.05, TimeThreshold: 0.50}

// TestRunRegressionDetected is the acceptance-criteria check: an injected 10%
// write-latency regression in a fixture pair must be flagged.
func TestRunRegressionDetected(t *testing.T) {
	base := load(t, "run-baseline.json")
	regressed := load(t, "run-regressed.json")

	findings, compared, err := diff(base, regressed, defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if compared == 0 {
		t.Fatal("no metrics compared")
	}
	regressions := 0
	sawWriteLat := false
	for _, f := range findings {
		if !f.Regression {
			t.Errorf("unexpected non-regression finding: %s", f)
		}
		regressions++
		if strings.HasPrefix(f.Metric, "write_latency.") {
			sawWriteLat = true
			if f.Delta < 0.09 || f.Delta > 0.11 {
				t.Errorf("%s: delta %.3f, want ~0.10", f.Metric, f.Delta)
			}
		}
	}
	if !sawWriteLat {
		t.Fatalf("10%% write-latency regression not flagged; findings: %v", findings)
	}
	// All five write-latency quantile metrics moved by 10%; nothing else did.
	if regressions != 5 {
		t.Errorf("got %d regression(s), want 5: %v", regressions, findings)
	}
}

func TestRunIdenticalPairClean(t *testing.T) {
	base := load(t, "run-baseline.json")
	findings, compared, err := diff(base, base, defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("identical pair produced findings: %v", findings)
	}
	if compared < 10 {
		t.Fatalf("compared only %d metrics", compared)
	}
}

// TestRunImprovementNotRegression: a latency drop crosses the threshold but
// is reported as a change, not a regression.
func TestRunImprovementNotRegression(t *testing.T) {
	base := load(t, "run-baseline.json")
	regressed := load(t, "run-regressed.json")

	// Swapped order: the "new" file is 10% faster.
	findings, _, err := diff(regressed, base, defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Regression {
			t.Errorf("improvement flagged as regression: %s", f)
		}
	}
	if len(findings) == 0 {
		t.Fatal("improvement beyond threshold should still be reported")
	}
}

func TestRunV1SchemaAccepted(t *testing.T) {
	base := load(t, "run-baseline.json")
	v1 := []byte(strings.Replace(string(base), "dewrite/run/v2", "dewrite/run/v1", 1))
	if _, _, err := diff(v1, base, defaultOpts); err != nil {
		t.Fatalf("v1-vs-v2 run pair should compare: %v", err)
	}
}

func TestMixedKindsRejected(t *testing.T) {
	run := load(t, "run-baseline.json")
	bench := []byte(`{"schema":"dewrite/bench/v1","experiments":[]}`)
	if _, _, err := diff(run, bench, defaultOpts); err == nil {
		t.Fatal("mixed kinds should be an error")
	}
	if _, _, err := diff([]byte(`{}`), run, defaultOpts); err == nil {
		t.Fatal("missing schema should be an error")
	}
}

const benchBase = `{
  "schema": "dewrite/bench/v1",
  "quick": true, "requests": 20000, "warmup": 2000, "seed": 42,
  "perf": {"workers": 4, "wall_ms": 1000, "mallocs": 50000, "allocs_per_request": 0.04},
  "experiments": [{
    "id": "fig14", "wall_ms": 400,
    "tables": [{
      "title": "Write latency",
      "columns": ["app", "DeWrite ns", "SecureNVM ns", "sw ns/line (this host)"],
      "rows": [["mcf", "321ns", "480ns", "55.1"],
               ["gcc", "300ns", "450ns", "54.2"]]
    }]
  }]
}`

func TestBenchTableCellRegression(t *testing.T) {
	// A deterministic table cell drifts 10%: flagged at the tight threshold.
	cur := strings.Replace(benchBase, `"321ns"`, `"353ns"`, 1)
	findings, compared, err := diff([]byte(benchBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if compared == 0 {
		t.Fatal("no metrics compared")
	}
	if len(findings) != 1 || !findings[0].Regression {
		t.Fatalf("findings = %v, want one regression", findings)
	}
	if !strings.Contains(findings[0].Metric, "mcf") || !strings.Contains(findings[0].Metric, "DeWrite ns") {
		t.Fatalf("finding names wrong cell: %s", findings[0].Metric)
	}
}

func TestBenchHostColumnsSkipped(t *testing.T) {
	// Host-dependent column drifts wildly: ignored by default, compared
	// with -include-host.
	cur := strings.Replace(benchBase, `"55.1"`, `"99.9"`, 1)
	findings, _, err := diff([]byte(benchBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("host column compared by default: %v", findings)
	}
	withHost := defaultOpts
	withHost.IncludeHost = true
	findings, _, err = diff([]byte(benchBase), []byte(cur), withHost)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("-include-host should flag the drift: %v", findings)
	}
}

func TestBenchWallClockUsesLooseThreshold(t *testing.T) {
	// +30% wall clock: within the 50% noise allowance.
	cur := strings.Replace(benchBase, `"wall_ms": 1000`, `"wall_ms": 1300`, 1)
	findings, _, err := diff([]byte(benchBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("30%% wall-clock drift should pass: %v", findings)
	}
	// +80% is beyond it.
	cur = strings.Replace(benchBase, `"wall_ms": 1000`, `"wall_ms": 1800`, 1)
	findings, _, err = diff([]byte(benchBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Metric != "perf.wall_ms" {
		t.Fatalf("80%% wall-clock drift should be flagged: %v", findings)
	}
}

// TestBenchWallClockFloor: a wall-clock change under a millisecond is noise
// however large its ratio. The committed pair of suite snapshots differs in
// two sub-millisecond experiments whose code did not change (abl-modes 0.143
// -> 0.253 ms, tail 0.152 -> 0.232 ms) and must compare clean, while an
// experiment going from 10 to 20 ms is still flagged.
func TestBenchWallClockFloor(t *testing.T) {
	var pair [2][]byte
	for i, name := range []string{"BENCH_2026-10-17e.json", "BENCH_2026-10-18.json"} {
		blob, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		pair[i] = blob
	}
	findings, _, err := diff(pair[0], pair[1], defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Regression {
			t.Errorf("committed pair flagged: %s", f)
		}
	}

	from := strings.Replace(benchBase, `"id": "fig14", "wall_ms": 400`, `"id": "fig14", "wall_ms": 10`, 1)
	to := strings.Replace(benchBase, `"id": "fig14", "wall_ms": 400`, `"id": "fig14", "wall_ms": 20`, 1)
	findings, _, err = diff([]byte(from), []byte(to), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !findings[0].Regression || findings[0].Metric != "exp.fig14.wall_ms" {
		t.Fatalf("10 -> 20 ms should be flagged: %v", findings)
	}
	from = strings.Replace(benchBase, `"id": "fig14", "wall_ms": 400`, `"id": "fig14", "wall_ms": 0.4`, 1)
	to = strings.Replace(benchBase, `"id": "fig14", "wall_ms": 400`, `"id": "fig14", "wall_ms": 1.3`, 1)
	findings, _, err = diff([]byte(from), []byte(to), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("a 0.9 ms change should pass whatever its ratio: %v", findings)
	}
}

func TestBenchConfigMismatchNoted(t *testing.T) {
	cur := strings.Replace(benchBase, `"seed": 42`, `"seed": 43`, 1)
	findings, _, err := diff([]byte(benchBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range findings {
		if f.Metric == "config" && f.Regression {
			found = true
		}
	}
	if !found {
		t.Fatalf("seed mismatch should be surfaced: %v", findings)
	}
}

// TestBenchRepeatedRowLabels: ablation tables repeat the app label across a
// parameter sweep; the n-th "mcf" row must pair with the n-th "mcf" row, so a
// self-compare stays clean and a drift in one sweep point is attributed once.
func TestBenchRepeatedRowLabels(t *testing.T) {
	sweep := `{
	  "schema": "dewrite/bench/v1", "quick": true, "requests": 1, "warmup": 0, "seed": 1,
	  "experiments": [{"id": "abl", "wall_ms": 1, "tables": [{
	    "title": "sweep", "columns": ["app", "bits", "rate"],
	    "rows": [["mcf", "8", "0.50"], ["mcf", "16", "0.70"], ["mcf", "32", "0.80"]]
	  }]}]
	}`
	findings, _, err := diff([]byte(sweep), []byte(sweep), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("self-compare with repeated labels produced findings: %v", findings)
	}
	cur := strings.Replace(sweep, `"0.70"`, `"0.90"`, 1)
	findings, _, err = diff([]byte(sweep), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Metric, "rate") {
		t.Fatalf("middle sweep row drift should yield one finding: %v", findings)
	}
}

const benchScalingBase = `{
  "schema": "dewrite/bench/v2",
  "quick": true, "requests": 20000, "warmup": 2000, "seed": 42,
  "perf": {"workers": 8, "wall_ms": 1000, "mallocs": 50000, "allocs_per_request": 0.04,
    "seq_wall_ms": 4000, "speedup": 4.0,
    "scaling": [{"workers": 1, "wall_ms": 800, "speedup": 1.0},
                {"workers": 2, "wall_ms": 420, "speedup": 1.9},
                {"workers": 4, "wall_ms": 230, "speedup": 3.5},
                {"workers": 8, "wall_ms": 130, "speedup": 6.2}]},
  "experiments": []
}`

// TestBenchScalingRegressionGated: a collapse of the 8-worker speedup is a
// regression; the same move in the other direction is reported as a change,
// not a regression (direction-aware gating).
func TestBenchScalingRegressionGated(t *testing.T) {
	cur := strings.Replace(benchScalingBase, `"workers": 8, "wall_ms": 130, "speedup": 6.2`,
		`"workers": 8, "wall_ms": 130, "speedup": 1.1`, 1)
	findings, _, err := diff([]byte(benchScalingBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !findings[0].Regression || findings[0].Metric != "perf.scaling[8w].speedup" {
		t.Fatalf("want one perf.scaling[8w].speedup regression, got: %v", findings)
	}

	// Reversed: the curve improved; still reported, but not as a regression.
	findings, _, err = diff([]byte(cur), []byte(benchScalingBase), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Regression {
		t.Fatalf("speedup improvement should be a non-regression finding: %v", findings)
	}
}

// TestBenchScalingWallClockLooseThreshold: curve wall clocks are host noise
// and use the loose threshold; a 30% drift passes, an order-of-magnitude
// slowdown is a regression.
func TestBenchScalingWallClockLooseThreshold(t *testing.T) {
	cur := strings.Replace(benchScalingBase, `"workers": 4, "wall_ms": 230`,
		`"workers": 4, "wall_ms": 300`, 1)
	findings, _, err := diff([]byte(benchScalingBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("30%% curve wall-clock drift should pass: %v", findings)
	}
	cur = strings.Replace(benchScalingBase, `"workers": 4, "wall_ms": 230`,
		`"workers": 4, "wall_ms": 2300`, 1)
	findings, _, err = diff([]byte(benchScalingBase), []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !findings[0].Regression || findings[0].Metric != "perf.scaling[4w].wall_ms" {
		t.Fatalf("10x curve wall-clock drift should be flagged: %v", findings)
	}
}

// TestBenchScalingMissingBaselineNote: a v1 baseline (no curve) against a v2
// snapshot with one compares cleanly — the curve yields a skip note, never a
// zero-diff regression — and the mixed v1/v2 schema pair is accepted.
func TestBenchScalingMissingBaselineNote(t *testing.T) {
	findings, compared, err := diff([]byte(benchBase), []byte(benchScalingBase), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if compared == 0 {
		t.Fatal("no metrics compared across the v1/v2 pair")
	}
	noted := false
	for _, f := range findings {
		if strings.HasPrefix(f.Metric, "perf.scaling") {
			if f.Regression || !strings.Contains(f.Note, "skipped") {
				t.Errorf("missing curve should be a skip note: %s", f)
			}
			noted = true
		}
	}
	if !noted {
		t.Fatalf("want a perf.scaling skip note, got: %v", findings)
	}
}

func TestCellValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		num  bool
	}{
		{"321ns", 321, true},
		{"54.2", 54.2, true},
		{"12.5%", 12.5, true},
		{"1.2e3", 1200, true},
		{"-0.5", -0.5, true},
		{"mcf", 0, false},
		{"", 0, false},
		{"3 reads out of 10", 0, false},
	}
	for _, c := range cases {
		got, num := cellValue(c.in)
		if num != c.num || (num && got != c.want) {
			t.Errorf("cellValue(%q) = %v,%v want %v,%v", c.in, got, num, c.want, c.num)
		}
	}
}

// TestRunMissingBlocksSkippedWithNote: a report without the optional timeline
// or faults blocks (an older schema, or a run that never armed them) is never
// diffed against zeros — the mismatch is a note, not a regression.
func TestRunMissingBlocksSkippedWithNote(t *testing.T) {
	base := load(t, "run-baseline.json")
	// Give the current report the v3 blocks the baseline lacks.
	cur := strings.Replace(string(base), `"schema": "dewrite/run/v2"`,
		`"schema": "dewrite/run/v3",
  "timeline": {"epoch_by": "requests", "every": 100, "epochs": [{"index": 0, "wear_max": 9, "wear_gini": 0.4}]},
  "faults": {"config": {"seed": 7, "endurance": 100}, "device": {"worn_writes": 1234, "stuck_lines": 9}}`, 1)

	findings, _, err := diff(base, []byte(cur), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	notes := map[string]bool{}
	for _, f := range findings {
		if f.Regression {
			t.Errorf("missing block flagged as regression: %s", f)
		}
		if f.Note == "" || !strings.Contains(f.Note, "skipped") {
			t.Errorf("expected a skip note, got: %s", f)
		}
		notes[f.Metric] = true
	}
	if !notes["timeline"] || !notes["faults"] {
		t.Fatalf("want skip notes for both timeline and faults, got: %v", findings)
	}
	// Same pair reversed: still notes, still no zero-diff regressions.
	findings, _, err = diff([]byte(cur), base, defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Regression {
			t.Errorf("reversed pair: missing block flagged as regression: %s", f)
		}
	}
}

// TestRunAttributionBlocksCompared: when both reports carry the v4
// attribution block, the total and per-cause write counters are diffed with
// more-writes-is-worse direction; a baseline without the block yields a skip
// note instead of zero-diff regressions.
func TestRunAttributionBlocksCompared(t *testing.T) {
	base := load(t, "run-baseline.json")
	withAttr := func(metaWrites int) []byte {
		return []byte(strings.Replace(string(base), `"schema": "dewrite/run/v2"`,
			fmt.Sprintf(`"schema": "dewrite/run/v4",
  "attribution": {"sample_period": 1024, "sampled_writes": 10, "sampled_reads": 8,
    "sampled_write_ps": 1, "sampled_read_ps": 1,
    "causes": [{"cause": "unique", "writes": 5000, "energy_pj": 10},
               {"cause": "metadata", "writes": %d, "energy_pj": 2}],
    "total_line_writes": %d, "energy_pj": 12}`, metaWrites, 5000+metaWrites), 1))
	}
	findings, _, err := diff(withAttr(1000), withAttr(1200), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]finding{}
	for _, f := range findings {
		if !f.Regression {
			t.Errorf("attribution growth should be a regression: %s", f)
		}
		byMetric[f.Metric] = f
	}
	if _, ok := byMetric["attribution.writes.metadata"]; !ok {
		t.Errorf("per-cause metadata growth not flagged: %v", findings)
	}
	if _, ok := byMetric["attribution.total_line_writes"]; ok {
		// 6200 vs 6000 is ~3.3%, under the 5% threshold.
		t.Errorf("total within threshold should not be flagged: %v", findings)
	}
	if _, ok := byMetric["attribution.writes.unique"]; ok {
		t.Errorf("unchanged cause flagged: %v", findings)
	}

	// Baseline without the block: note, never a regression.
	findings, _, err = diff(base, withAttr(1000), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	noted := false
	for _, f := range findings {
		if f.Regression {
			t.Errorf("missing attribution block flagged as regression: %s", f)
		}
		if f.Metric == "attribution" && strings.Contains(f.Note, "skipped") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("want an attribution skip note, got: %v", findings)
	}
}

// TestRunAttributionSamplePeriodMismatch: differing sample periods produce a
// note (sampled totals are not comparable) while the exhaustive provenance
// counters are still diffed.
func TestRunAttributionSamplePeriodMismatch(t *testing.T) {
	base := load(t, "run-baseline.json")
	withPeriod := func(period int) []byte {
		return []byte(strings.Replace(string(base), `"schema": "dewrite/run/v2"`,
			fmt.Sprintf(`"schema": "dewrite/run/v4",
  "attribution": {"sample_period": %d, "causes": [{"cause": "unique", "writes": 100, "energy_pj": 1}],
    "total_line_writes": 100, "energy_pj": 1}`, period), 1))
	}
	findings, _, err := diff(withPeriod(64), withPeriod(1024), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Metric != "attribution.sample_period" ||
		findings[0].Regression || !strings.Contains(findings[0].Note, "skipped") {
		t.Fatalf("want one sample-period note, got: %v", findings)
	}
}

// TestRunFaultsBlocksCompared: when both reports carry a faults block its
// metrics are diffed like any other.
func TestRunFaultsBlocksCompared(t *testing.T) {
	base := load(t, "run-baseline.json")
	withFaults := func(worn int) []byte {
		return []byte(strings.Replace(string(base), `"schema": "dewrite/run/v2"`,
			fmt.Sprintf(`"schema": "dewrite/run/v3",
  "faults": {"config": {"seed": 7, "endurance": 100}, "device": {"worn_writes": %d}}`, worn), 1))
	}
	findings, _, err := diff(withFaults(1000), withFaults(1200), defaultOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !findings[0].Regression || findings[0].Metric != "faults.worn_writes" {
		t.Fatalf("want one faults.worn_writes regression, got: %v", findings)
	}
}

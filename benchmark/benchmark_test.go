package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// daemonBin is a dewrite-serve binary built once for the tests.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "dewrite-serve")
	out, err := exec.Command("go", "build", "-o", daemonBin, "dewrite/cmd/dewrite-serve").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building dewrite-serve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestMetricsMatchBenchmarkJSON keeps the metric definitions and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		want := map[string]string{}
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("%s metric %q: invalid name", kind, d.name)
			}
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s metric %q: BENCHMARK.json unit %q, benchmark emits %q", kind, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s metric %q is listed in BENCHMARK.json but never emitted", kind, name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// measuredUnits are the units of metrics that are never 0 when measured.
var measuredUnits = map[string]bool{"s": true, "us": true, "ns": true, "ops/s": true, "MB": true}

// raceEnabled is set under the race detector (race_test.go), which slows
// each instrumented call unevenly: the residuals, differences of timings, can
// then dip below 0.
var raceEnabled bool

// TestToyWorkloads runs every workload at toy scale, untraced and traced,
// and checks the result: correct, exactly the metric set for the mode, and
// every time a workload must measure actually measured. The traced runs'
// correctness includes their replay reports matching the untraced ones.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &runConfig{
				workload: w.name, seed: goldenSeed, seconds: 300 * time.Millisecond,
				trace: traced, toy: true, daemon: daemonBin,
				check:  &checker{seen: map[string]string{}, suffix: "@toy"},
				logger: t.Logf,
			}
			if traced {
				c.spans = newSpanLog()
			}
			o, err := w.run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			o.problems = append(o.problems, c.check.failures...)
			res, err := o.result(w.name, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: not correct: %v (attempted %d, failed %d)", w.name, traced, o.problems, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				if raceEnabled && strings.HasSuffix(d.name, "_residual_ns") {
					continue
				}
				if measuredUnits[d.unit] && (d.only == "" || d.only == w.name) && m.Value <= 0 {
					t.Errorf("%s traced=%v: %s = %v, want a measured value", w.name, traced, d.name, m.Value)
				}
			}
		}
	}
}

// TestGoldenMismatchExits1 runs the built benchmark: a run matching its
// golden digest exits 0, the same run against a corrupted digest exits 1.
func TestGoldenMismatchExits1(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	golden := filepath.Join(dir, "golden.json")
	run := func(extra ...string) int {
		args := append([]string{"--workload", "sim-dedup", "--toy", "--seconds", "0.05", "--golden", golden}, extra...)
		err := exec.Command(bin, args...).Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	}
	if code := run("--update-golden"); code != 0 {
		t.Fatalf("--update-golden exited %d", code)
	}
	if code := run(); code != 0 {
		t.Fatalf("run against its own golden digest exited %d", code)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(data, &gf); err != nil {
		t.Fatal(err)
	}
	gf.Digests["sim-dedup@toy"] = strings.Repeat("0", 64)
	data, _ = json.Marshal(gf)
	if err := os.WriteFile(golden, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(); code != 1 {
		t.Fatalf("run against a corrupted golden digest exited %d, want 1", code)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVetAndGofmt(t *testing.T) {
	if out, err := exec.Command("go", "vet", "./...").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil || len(out) > 0 {
		t.Errorf("gofmt -l: %v\n%s", err, out)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Summary mode runs every workload in child processes of this binary, so each
// workload's peak RSS is its own: --runs untraced runs per workload (seeds
// --seed, --seed+1, ...) and one traced run at --seed, all of it --sets
// times. It prints every metric's median over the runs with its quartiles,
// checks each end-to-end spread and set-to-set drift against the bounds in
// BENCHMARK.json, and exits 1 if any run failed a correctness check.

// childRun is one child process's output.
type childRun struct {
	Seed    uint64               `json:"seed"`
	Result  result               `json:"result"`
	Samples map[string][]float64 `json:"samples"`
}

type workloadRuns struct {
	Runs   []childRun `json:"runs"`
	Traced childRun   `json:"traced"`
}

type summaryFile struct {
	Date    string                    `json:"date"`
	Host    map[string]any            `json:"host"`
	Seconds float64                   `json:"seconds"`
	Sets    []map[string]workloadRuns `json:"sets"`
}

// bound is BENCHMARK.json's regression bound for an end-to-end metric.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func runSummary(c *runConfig, runs, sets int, outPath, goldenPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bounds := loadBounds("BENCHMARK.json")
	sum := summaryFile{
		Date:    time.Now().Format("2006-01-02"),
		Host:    map[string]any{"nproc": runtime.NumCPU(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version()},
		Seconds: c.seconds.Seconds(),
	}
	failed := false
	for set := 0; set < sets; set++ {
		got := map[string]workloadRuns{}
		for _, w := range workloads {
			var wr workloadRuns
			for i := 0; i < runs; i++ {
				cr, ok, err := child(self, c, w.name, c.seed+uint64(i), false, goldenPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				failed = failed || !ok
				wr.Runs = append(wr.Runs, cr)
			}
			cr, ok, err := child(self, c, w.name, c.seed, true, goldenPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			failed = failed || !ok
			wr.Traced = cr
			got[w.name] = wr
		}
		sum.Sets = append(sum.Sets, got)
		fmt.Printf("set %d of %d: %d run(s) per workload, %v each\n", set+1, sets, runs, c.seconds)
		printSet(got, bounds)
	}
	if sets > 1 {
		printDrift(sum.Sets, bounds)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if failed {
		fmt.Println("FAIL: a run failed its correctness checks")
		return 1
	}
	return 0
}

// child runs one workload in a child process and returns its output and
// whether its checks passed.
func child(self string, c *runConfig, name string, seed uint64, traced bool, goldenPath string) (childRun, bool, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds.Seconds(), 'f', -1, 64),
		"--trace", trace, "--daemon", c.daemon, "--golden", goldenPath,
	}
	if traced {
		if c.traceOut != "" {
			args = append(args, "--trace-out", strings.TrimSuffix(c.traceOut, ".json")+"-"+name+".json")
		}
	}
	if c.toy {
		args = append(args, "--toy")
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d trace %v\n", name, seed, traced)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return childRun{}, false, fmt.Errorf("%s (seed %d): %w", name, seed, err)
	}
	var lines []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return childRun{}, false, fmt.Errorf("%s (seed %d): no result", name, seed)
	}
	cr := childRun{Seed: seed}
	var s struct {
		Samples map[string][]float64 `json:"samples"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &s); err != nil {
		return childRun{}, false, fmt.Errorf("%s (seed %d): samples: %w", name, seed, err)
	}
	cr.Samples = s.Samples
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &cr.Result); err != nil {
		return childRun{}, false, fmt.Errorf("%s (seed %d): result: %w", name, seed, err)
	}
	return cr, cr.Result.Correct, nil
}

func loadBounds(path string) map[string]bound {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil // outside a checkout: no verdicts
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	out := map[string]bound{}
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out
}

// printSet prints one set: each end-to-end metric's median over the runs
// with its quartiles and spread (q3-q1 over the median, which must stay
// within the metric's bound), then the traced run's per-layer metrics. With a
// single run the quartiles are those of its reps.
func printSet(set map[string]workloadRuns, bounds map[string]bound) {
	for _, w := range workloads {
		wr := set[w.name]
		for _, d := range endToEnd {
			vals, over := runValues(wr.Runs, d.name), "runs"
			if len(vals) == 1 && len(wr.Runs[0].Samples[d.name]) > 1 {
				vals, over = wr.Runs[0].Samples[d.name], "reps"
			}
			q1, q3 := quartiles(vals)
			m := median(vals)
			spread := ratio(q3-q1, m)
			verdict := ""
			if b, ok := bounds[d.name]; ok && over == "runs" && len(vals) >= 4 && d.name != "setup_s" {
				verdict = " ok"
				if spread > b.Bound {
					verdict = " OVER BOUND"
				}
			}
			fmt.Printf("%-12s %-34s %14.6g %-6s (%s=%d q1=%.6g q3=%.6g spread=%.1f%%%s)\n",
				w.name, d.name, m, d.unit, over, len(vals), q1, q3, 100*spread, verdict)
		}
		for _, r := range append(wr.Runs, wr.Traced) {
			fmt.Printf("%-12s %-34s %14d %-6s (seed %d, failed %d, correct %v)\n",
				w.name, "attempted", r.Result.Attempted, "ops", r.Seed, r.Result.Failed, r.Result.Correct)
		}
		for _, d := range perLayer {
			fmt.Printf("%-12s %-34s %14.6g %-6s (traced)\n", w.name, d.name, wr.Traced.Result.Metrics[d.name].Value, d.unit)
		}
	}
}

// printDrift compares each later set's medians with the first set's: a
// median worse by more than the metric's bound fails.
func printDrift(sets []map[string]workloadRuns, bounds map[string]bound) {
	for s := 1; s < len(sets); s++ {
		fmt.Printf("drift of set %d against set 1:\n", s+1)
		for _, w := range workloads {
			for _, d := range endToEnd {
				m1 := median(runValues(sets[0][w.name].Runs, d.name))
				m2 := median(runValues(sets[s][w.name].Runs, d.name))
				worse := ratio(m2-m1, m1)
				b, ok := bounds[d.name]
				if ok && b.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if ok {
					verdict = " ok"
					if worse > b.Bound {
						verdict = " OVER BOUND"
					}
				}
				fmt.Printf("%-12s %-12s %14.6g -> %-14.6g worse by %+.1f%%%s\n", w.name, d.name, m1, m2, 100*worse, verdict)
			}
		}
	}
}

func runValues(runs []childRun, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		vals = append(vals, r.Result.Metrics[name].Value)
	}
	return vals
}

// Command benchmark measures what the dewrite simulator, the experiment
// suite and the dewrite-serve daemon cost in host time, and checks that their
// outputs stay correct while it does. Simulated-time results are checked
// against golden digests and never reported as performance.
//
// One workload per invocation (the form a harness runs):
//
//	bash benchmark/run.sh --workload sim-dedup --seed 1 --seconds 30 --trace 0
//
// prints progress on stderr, one line of per-rep samples, and, as its last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Without --workload
// it runs every workload in child processes and prints a summary table (see
// all.go). README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	toy      bool   // tiny inputs, for tests
	daemon   string // dewrite-serve binary (serve-mixed)
	traceOut string // Chrome trace destination for --trace 1 ("" = none)

	check  *checker
	spans  *spanLog // non-nil in traced runs
	logger func(format string, args ...any)
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int64
	problems          []string             // failed correctness checks
	values            map[string]float64   // metric name → value
	samples           map[string][]float64 // per-rep samples behind end-to-end values
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string][]float64{}}
}

// sample records one rep's measurement of an end-to-end metric; the reported
// value is the median of a run's samples.
func (o *outcome) sample(name string, v float64) {
	o.record(name, v)
	o.values[name] = median(o.samples[name])
}

// record keeps a sample that is reported only in the samples line: a raw
// value before calibration, or the host slowdown behind it.
func (o *outcome) record(name string, v float64) {
	o.samples[name] = append(o.samples[name], v)
}

// sampleCalibrated records a rep's raw end-to-end values and reports them at
// the reference host speed (see calib.go): a throughput times the host's
// slowdown over the interval it was measured in, a time divided by it.
func (o *outcome) sampleCalibrated(name string, raw, slow float64, throughput bool) {
	o.record("raw_"+name, raw)
	if throughput {
		o.sample(name, raw*slow)
	} else {
		o.sample(name, raw/slow)
	}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads are the benchmark's inputs, in the order the summary runs them.
var workloads = []struct {
	name string
	run  func(*runConfig) (*outcome, error)
}{
	{"sim-dedup", runSimDedup},
	{"sim-unique", runSimUnique},
	{"suite-quick", runSuiteQuick},
	{"serve-mixed", runServeMixed},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		cfg        runConfig
		seconds    = fs.Float64("seconds", 30, "measuring time per run")
		trace      = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
		goldenPath = fs.String("golden", "benchmark/testdata/golden.json", "golden digest file")
		update     = fs.Bool("update-golden", false, "record this run's digests as the golden ones (seed 42 only)")
		runs       = fs.Int("runs", 1, "summary mode: untraced runs per workload, each with its own seed")
		sets       = fs.Int("sets", 1, "summary mode: repeat every workload's runs this many times")
		out        = fs.String("out", "", "summary mode: write every run's results to this JSON file")
	)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", goldenSeed, "input seed")
	fs.BoolVar(&cfg.toy, "toy", false, "tiny inputs (tests)")
	fs.StringVar(&cfg.daemon, "daemon", "", "dewrite-serve binary for serve-mixed")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1, write the run's spans here as Chrome-trace JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	cfg.logger = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	if *trace != 0 && *trace != 1 {
		return usage("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return usage("--seconds must be positive")
	}

	if cfg.workload == "" {
		if *update {
			return usage("--update-golden needs --workload")
		}
		return runSummary(&cfg, *runs, *sets, *out, *goldenPath)
	}
	wl := -1
	for i, w := range workloads {
		if w.name == cfg.workload {
			wl = i
		}
	}
	if wl < 0 {
		return usage(fmt.Sprintf("unknown workload %q (want %s)", cfg.workload, workloadNames()))
	}
	if *update && cfg.seed != goldenSeed {
		return usage(fmt.Sprintf("--update-golden needs --seed %d", goldenSeed))
	}
	check, err := loadChecker(*goldenPath, cfg.seed, *update, cfg.toy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg.check = check
	if cfg.trace {
		cfg.spans = newSpanLog()
	}

	o, err := workloads[wl].run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 2
	}
	o.problems = append(o.problems, check.failures...)
	if *update {
		if err := check.save(*goldenPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if cfg.trace && cfg.traceOut != "" {
		if err := cfg.spans.writeChrome(cfg.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: trace:", err)
			return 2
		}
	}
	res, err := o.result(cfg.workload, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 2
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: check failed: %s\n", cfg.workload, p)
	}
	samples, err := json.Marshal(map[string]any{"samples": o.samples})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(samples))
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func usage(msg string) int {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	return 2
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the metric set the run reports. A metric measured only on
// one workload reads 0 on the others (the layer did no work there); any
// other metric the workload failed to measure is a benchmark bug.
func (o *outcome) result(workload string, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && (d.only == "" || d.only == workload) {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return res, errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return res, nil
}

// resetPeakRSS restarts this process's peak resident set size (VmHWM) from
// its current RSS, so that each rep's peak is its own. Where the kernel
// refuses, peaks count from the process's start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	mb, err := vmHWM("/proc/self/status")
	if err != nil {
		return 0
	}
	return mb
}

// vmHWM reads the peak resident set size, in MB, from a /proc/<pid>/status
// file.
func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Command dewrite-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dewrite-bench                 # run every experiment at full scale
//	dewrite-bench -run fig14      # one experiment
//	dewrite-bench -run fig14,fig16,fig17
//	dewrite-bench -list           # list experiment IDs
//	dewrite-bench -quick          # representative app subset, shorter runs
//	dewrite-bench -requests 50000 # scale the per-app run length
//	dewrite-bench -parallel 8     # worker count (default GOMAXPROCS)
//	dewrite-bench -quick -speedup # also time a sequential pass and report speedup,
//	                              # plus the sharded hot-loop scaling curve
//	dewrite-bench -quick -shards 4 # smoke-test the sharded engine first
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dewrite/internal/experiments"
	"dewrite/internal/monitor"
	"dewrite/internal/stats"
)

// benchFileSchema identifies the BENCH_<date>.json layout. v2 added the
// perf.scaling curve (sharded hot-loop wall clock at worker counts 1/2/4/8);
// v1 documents are a strict subset and remain decodable by benchdiff.
const benchFileSchema = "dewrite/bench/v2"

// benchEntry is one experiment's record in the bench file: identity, host
// wall-clock cost, and every result table it produced.
type benchEntry struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	WallMS float64        `json:"wall_ms"`
	Tables []*stats.Table `json:"tables"`
}

// benchPerf records the engine-level cost of the invocation: worker count,
// wall clock, allocation pressure, and (under -speedup) the sequential
// baseline, the resulting suite speedup, and the sharded hot-loop scaling
// curve.
type benchPerf struct {
	Workers          int                 `json:"workers"`
	WallMS           float64             `json:"wall_ms"`
	Mallocs          uint64              `json:"mallocs"`
	AllocsPerRequest float64             `json:"allocs_per_request"`
	SeqWallMS        float64             `json:"seq_wall_ms,omitempty"`
	Speedup          float64             `json:"speedup,omitempty"`
	Scaling          []benchScalingPoint `json:"scaling,omitempty"`
}

// benchScalingPoint is one point of the sharded-engine scaling curve: the
// same prepared request stream driven through a fixed shard count at this
// worker count, with speedup relative to the curve's one-worker point. The
// results are worker-count-independent by construction, so the curve
// isolates pure hot-loop parallelism from any output drift.
type benchScalingPoint struct {
	Workers int     `json:"workers"`
	WallMS  float64 `json:"wall_ms"`
	Speedup float64 `json:"speedup"`
}

// benchFile is the machine-readable record of one dewrite-bench invocation.
type benchFile struct {
	Schema      string       `json:"schema"`
	Date        string       `json:"date"`
	Quick       bool         `json:"quick"`
	Requests    int          `json:"requests"`
	Warmup      int          `json:"warmup"`
	Seed        uint64       `json:"seed"`
	Perf        benchPerf    `json:"perf"`
	Experiments []benchEntry `json:"experiments"`
}

// benchOutPath resolves the -bench-out flag: "auto" names the file after the
// current date, "none" (or empty) disables it.
func benchOutPath(flagVal string, now time.Time) string {
	switch flagVal {
	case "none", "":
		return ""
	case "auto":
		return fmt.Sprintf("BENCH_%s.json", now.Format("2006-01-02"))
	default:
		return flagVal
	}
}

// selectExperiments resolves a comma-separated ID list ("" = all).
func selectExperiments(run string) ([]experiments.Experiment, error) {
	if run == "" {
		return experiments.All(), nil
	}
	var selected []experiments.Experiment
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		selected = append(selected, e)
	}
	return selected, nil
}

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quick    = flag.Bool("quick", false, "representative subset at reduced scale")
		requests = flag.Int("requests", 0, "memory requests per (app, scheme) run")
		warmup   = flag.Int("warmup", -1, "warmup requests excluded from measurement")
		seed     = flag.Uint64("seed", 42, "workload seed")
		format   = flag.String("format", "text", "output format: text|csv|json")
		jsonOut  = flag.Bool("json", false, "shorthand for -format json")
		plotDir  = flag.String("plot", "", "also write gnuplot .dat files into this directory")
		benchOut = flag.String("bench-out", "auto", "write timings and tables to this JSON file ('auto' = BENCH_<date>.json, 'none' disables)")
		parallel = flag.Int("parallel", 0, "worker goroutines (<1 = GOMAXPROCS); output is identical at any count")
		speedup  = flag.Bool("speedup", false, "also run a sequential pass and the sharded scaling curve, recording both")
		shards   = flag.Int("shards", 0, "validate the sharded engine at this shard count before the experiments (0 disables)")
		monAddr  = flag.String("monitor", "", "serve live gauges (/metrics, /healthz, /debug/vars) and /debug/pprof/ on this address (e.g. :8080)")
	)
	flag.Parse()
	if *jsonOut {
		*format = "json"
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *requests > 0 {
		opts.Requests = *requests
	}
	if *warmup >= 0 {
		opts.Warmup = *warmup
	}
	opts.Seed = *seed
	if opts.Warmup >= opts.Requests {
		fmt.Fprintf(os.Stderr, "dewrite-bench: warmup %d must be below requests %d\n", opts.Warmup, opts.Requests)
		os.Exit(2)
	}

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dewrite-bench: %v (use -list)\n", err)
		os.Exit(2)
	}

	if *monAddr != "" {
		reg := monitor.NewRegistry()
		msrv, err := monitor.Serve(*monAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-bench: monitor: %v\n", err)
			os.Exit(1)
		}
		defer msrv.Close()
		prev := experiments.SetProgress(reg.Progress())
		defer experiments.SetProgress(prev)
		fmt.Fprintf(os.Stderr, "dewrite-bench: monitor at http://%s/metrics\n", msrv.Addr())
	}

	workers := experiments.Workers(*parallel)
	bench := benchFile{
		Schema:   benchFileSchema,
		Date:     time.Now().Format("2006-01-02"),
		Quick:    *quick,
		Requests: opts.Requests,
		Warmup:   opts.Warmup,
		Seed:     opts.Seed,
	}
	if *format == "text" {
		fmt.Printf("dewrite-bench: %d experiment(s), %d requests/app (%d warmup), seed %d, %d worker(s)\n\n",
			len(selected), opts.Requests, opts.Warmup, opts.Seed, workers)
	}
	if *plotDir != "" {
		if err := os.MkdirAll(*plotDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if *shards > 0 {
		if err := runShardSmoke(opts, *shards, workers); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
			os.Exit(1)
		}
	}

	var seqWall time.Duration
	var curve []benchScalingPoint
	if *speedup {
		// A throwaway suite: same options, fresh memo state, one worker.
		seqStart := time.Now()
		experiments.RunAll(experiments.NewSuite(opts), selected, 1)
		seqWall = time.Since(seqStart)
		fmt.Fprintf(os.Stderr, "dewrite-bench: sequential pass %v\n", seqWall.Round(time.Millisecond))
		curve = scalingCurve(opts)
	}

	suite := experiments.NewSuite(opts)
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	if workers > 1 && *run == "" {
		// Warm the shared (application × scheme) grid with fine-grained jobs
		// before the coarser per-experiment fan-out. Skipped for -run subsets,
		// which may not need the whole grid.
		suite.Prefill(workers)
	}
	outcomes := experiments.RunAll(suite, selected, workers)
	wall := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	mallocs := msAfter.Mallocs - msBefore.Mallocs
	simulated := uint64(suite.Simulations()) * uint64(opts.Requests)
	bench.Perf = benchPerf{
		Workers: workers,
		WallMS:  float64(wall) / float64(time.Millisecond),
		Mallocs: mallocs,
	}
	if simulated > 0 {
		bench.Perf.AllocsPerRequest = float64(mallocs) / float64(simulated)
	}
	if *speedup {
		bench.Perf.SeqWallMS = float64(seqWall) / float64(time.Millisecond)
		if wall > 0 {
			bench.Perf.Speedup = float64(seqWall) / float64(wall)
		}
		bench.Perf.Scaling = curve
		fmt.Fprintf(os.Stderr, "dewrite-bench: parallel pass %v with %d worker(s): %.2fx speedup, %.1f allocs/request\n",
			wall.Round(time.Millisecond), workers, bench.Perf.Speedup, bench.Perf.AllocsPerRequest)
	}

	for _, oc := range outcomes {
		e, tables := oc.Experiment, oc.Tables
		bench.Experiments = append(bench.Experiments, benchEntry{
			ID:     e.ID,
			Title:  e.Title,
			WallMS: float64(oc.Wall) / float64(time.Millisecond),
			Tables: tables,
		})
		for ti, tb := range tables {
			if *plotDir != "" {
				name := e.ID
				if len(tables) > 1 {
					name = fmt.Sprintf("%s-%d", e.ID, ti)
				}
				path := filepath.Join(*plotDir, name+".dat")
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
					os.Exit(1)
				}
				if err := tb.WriteDAT(f); err != nil {
					fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
					os.Exit(1)
				}
				f.Close()
			}
			switch *format {
			case "text":
				fmt.Println(tb.String())
			case "csv":
				fmt.Printf("# %s\n", tb.Title)
				if err := tb.WriteCSV(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
					os.Exit(1)
				}
				fmt.Println()
			case "json":
				if err := tb.WriteJSON(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
					os.Exit(1)
				}
			default:
				fmt.Fprintf(os.Stderr, "dewrite-bench: unknown format %q\n", *format)
				os.Exit(2)
			}
		}
		if *format == "text" {
			fmt.Printf("[%s finished in %v]\n\n", e.ID, oc.Wall.Round(time.Millisecond))
		}
	}

	if path := benchOutPath(*benchOut, time.Now()); path != "" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(bench); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dewrite-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dewrite-bench: wrote %s\n", path)
	}
}

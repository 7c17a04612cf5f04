// Command benchdiff compares two benchmark snapshots (BENCH_<date>.json) or
// two run reports (dewrite-sim -json) and flags metric deltas beyond
// configurable thresholds, exiting non-zero so CI can gate on regressions.
//
// Usage:
//
//	benchdiff BENCH_2026-08-05.json BENCH_2026-09-01.json
//	benchdiff -threshold 0.05 old-run.json new-run.json
//	benchdiff -warn-only -github baseline.json current.json   # CI annotation
//
// The file kind is sniffed from the schema field; both files must be the
// same kind. Deterministic metrics (latencies, IPC, energy, allocations,
// table cells) use -threshold; host wall-clock metrics use the looser
// -time-threshold, since CI machines are noisy, and a wall-clock change under
// 1 ms is never flagged, whatever its ratio.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var opts diffOptions
	flag.Float64Var(&opts.Threshold, "threshold", 0.05,
		"relative delta flagged on deterministic metrics (0.05 = 5%)")
	flag.Float64Var(&opts.TimeThreshold, "time-threshold", 0.50,
		"relative delta flagged on host wall-clock metrics (changes under 1 ms never are)")
	flag.BoolVar(&opts.IncludeHost, "include-host", false,
		"also compare host-dependent table columns (marked 'this host')")
	warnOnly := flag.Bool("warn-only", false, "report regressions but exit 0")
	github := flag.Bool("github", false, "emit GitHub Actions workflow annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] <baseline.json> <current.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)

	oldBlob, err := os.ReadFile(oldPath)
	if err != nil {
		fatal(err)
	}
	newBlob, err := os.ReadFile(newPath)
	if err != nil {
		fatal(err)
	}
	findings, compared, err := diff(oldBlob, newBlob, opts)
	if err != nil {
		fatal(err)
	}

	regressions := 0
	for _, f := range findings {
		if f.Regression {
			regressions++
		}
		line := f.String()
		switch {
		case *github && f.Regression && !*warnOnly:
			fmt.Printf("::error title=benchdiff::%s\n", line)
		case *github && f.Regression:
			fmt.Printf("::warning title=benchdiff::%s\n", line)
		default:
			fmt.Println(line)
		}
	}
	if regressions == 0 {
		fmt.Printf("benchdiff: %s vs %s: no regressions (%d metrics compared)\n",
			oldPath, newPath, compared)
		return
	}
	fmt.Printf("benchdiff: %d regression(s) beyond thresholds (%d metrics compared)\n",
		regressions, compared)
	if !*warnOnly {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

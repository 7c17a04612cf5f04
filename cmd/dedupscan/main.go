// Command dedupscan measures the cache-line-level duplication of real data:
// it slices files (or stdin) into 256 B lines and reports how many are
// duplicates — the statistic Figure 2 of the paper reports for memory write
// streams, applied to anything on disk. It also reports what a DeWrite-style
// CRC-32 fingerprint index would have done: fingerprint matches, confirmed
// duplicates and collisions.
//
// Usage:
//
//	dedupscan file1 [file2 ...]
//	cat data | dedupscan -
//	dedupscan -json file1          # one JSON array of per-input results
//	dedupscan -epoch 4096 file1    # also report the per-epoch dup ratio
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/hashes"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// scanResult aggregates one input's line statistics.
type scanResult struct {
	Name         string `json:"name"`
	Lines        uint64 `json:"lines"`
	Duplicates   uint64 `json:"duplicates"` // lines whose exact content appeared before
	ZeroLines    uint64 `json:"zero_lines"`
	FPMatches    uint64 `json:"fp_matches"`   // CRC-32 fingerprint matched a previous line
	Collisions   uint64 `json:"collisions"`   // fingerprint matched but content differed
	UniqueLines  uint64 `json:"unique_lines"` // distinct contents
	DistinctFPs  uint64 `json:"distinct_fps"` // distinct fingerprints
	BytesScanned uint64 `json:"bytes_scanned"`

	// Timeline is the per-epoch dup/zero-ratio series, present under -epoch.
	// Epoch "time" is the line index, so end_ps reads as lines scanned.
	Timeline *timeline.Report `json:"timeline,omitempty"`

	// Attribution is the would-be write-provenance ledger, present under
	// -attr: the physical line writes a DeWrite controller would issue for
	// this stream. Unique non-zero contents are placed once (cause "unique");
	// duplicates and zero lines are eliminated and issue nothing. Banks follow
	// the default device interleaving. Energy is zero — a disk scan has no
	// device energy model.
	Attribution []attr.CauseStat `json:"attribution,omitempty"`
}

// scanDevice is the experiment device, whose bank rule places the would-be
// unique writes, so their per-bank spread is comparable to simulator output.
var scanDevice = config.Experiment().NVM

// scan reads r to EOF, accumulating line statistics. The final partial line,
// if any, is zero-padded to line size (as a memory image would be). A
// positive every closes one timeline epoch per that many lines; withAttr
// additionally builds the would-be write-provenance ledger.
func scan(r io.Reader, every uint64, withAttr bool) (scanResult, error) {
	var res scanResult
	var led *attr.Ledger
	if withAttr {
		led = new(attr.Ledger)
	}
	var tl *timeline.Collector
	var src timeline.Sampler
	if every > 0 {
		tl = timeline.NewByRequests(every)
		src = timeline.SamplerFunc(func(e *timeline.Epoch, _ units.Time) {
			e.Writes = res.Lines
			e.DupEliminated = res.Duplicates
			e.ZeroWrites = res.ZeroLines
		})
	}
	seen := make(map[string]bool)    // exact contents
	fps := make(map[uint32][]string) // fingerprint → distinct contents carrying it
	line := make([]byte, config.LineSize)
	for {
		n, err := io.ReadFull(r, line)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			for i := n; i < config.LineSize; i++ {
				line[i] = 0
			}
		} else if err != nil {
			return res, err
		}
		res.Lines++
		res.BytesScanned += uint64(n)

		key := string(line)
		zero := config.IsZeroLine(line)
		if seen[key] {
			res.Duplicates++
		} else {
			seen[key] = true
			res.UniqueLines++
			if !zero {
				// The nil ledger (scan without -attr) drops the record.
				led.RecordWrite(attr.CauseUnique,
					config.BankOf(res.Lines-1, scanDevice.RowLines, scanDevice.Banks()), 0)
			}
		}
		if zero {
			res.ZeroLines++
		}

		fp := hashes.CRC32(line)
		if prev, ok := fps[fp]; ok {
			res.FPMatches++
			matched := false
			for _, p := range prev {
				if p == key {
					matched = true
					break
				}
			}
			if !matched {
				res.Collisions++
				fps[fp] = append(prev, key)
			}
		} else {
			fps[fp] = []string{key}
			res.DistinctFPs++
		}
		tl.Tick(units.Time(res.Lines), res.Lines, src)
		if err == io.ErrUnexpectedEOF {
			break
		}
	}
	tl.Finish(units.Time(res.Lines), res.Lines, src)
	res.Timeline = tl.Report()
	if withAttr {
		res.Attribution = led.Causes()
	}
	return res, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

func report(name string, r scanResult) {
	fmt.Printf("%s: %d lines (%d KB)\n", name, r.Lines, r.BytesScanned/1024)
	reportBody(r)
}

func reportBody(r scanResult) {
	fmt.Printf("  duplicates        %8d  (%.1f%% — what DeWrite would eliminate)\n",
		r.Duplicates, pct(r.Duplicates, r.Lines))
	fmt.Printf("  zero lines        %8d  (%.1f%% — what Silent Shredder would eliminate)\n",
		r.ZeroLines, pct(r.ZeroLines, r.Lines))
	fmt.Printf("  unique contents   %8d\n", r.UniqueLines)
	fmt.Printf("  CRC-32 collisions %8d  (%.4f%% of fingerprint matches)\n",
		r.Collisions, pct(r.Collisions, max64(r.FPMatches, 1)))
	if r.Attribution != nil {
		var total uint64
		for _, c := range r.Attribution {
			total += c.Writes
		}
		fmt.Printf("  would-be DeWrite line writes %d (%.1f%% of lines):\n", total, pct(total, r.Lines))
		for _, c := range r.Attribution {
			if c.Writes == 0 {
				continue
			}
			fmt.Printf("    %-10s %8d writes, banks %v\n", c.Cause, c.Writes, c.BankWrites)
		}
	}
	if r.Timeline != nil && len(r.Timeline.Epochs) > 0 {
		fmt.Printf("  per-epoch dup%% (every %d lines):", r.Timeline.Every)
		for _, e := range r.Timeline.Epochs {
			fmt.Printf(" %.1f", e.DupRatio*100)
		}
		fmt.Println()
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON array of per-input results on stdout")
	epoch := flag.Uint64("epoch", 0, "also report the dup ratio per this many lines (0 disables)")
	attrOn := flag.Bool("attr", false, "also report the would-be DeWrite write provenance per cause and bank")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dedupscan [-json] [-epoch N] [-attr] <file>... | dedupscan -")
		os.Exit(2)
	}
	var results []scanResult
	for _, path := range args {
		var r io.Reader
		name := path
		if path == "-" {
			r = os.Stdin
			name = "stdin"
		} else {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dedupscan: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			r = f
		}
		res, err := scan(r, *epoch, *attrOn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dedupscan: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.Name = name
		if *jsonOut {
			results = append(results, res)
		} else {
			report(name, res)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "dedupscan: %v\n", err)
			os.Exit(1)
		}
	}
}

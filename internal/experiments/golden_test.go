package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/workload"
)

var update = flag.Bool("update", false, "re-pin "+goldenPath+" from this run's digests")

// goldenPath holds the pinned digests of the simulator's outputs: one per
// quick-suite experiment and one per run report of pinnedRuns.
const goldenPath = "testdata/golden.json"

// quickSimulations is Suite.Simulations() after the seed-42 quick suite:
// each of the five profiles' prepared stream, default replay and five scheme
// runs, plus the prepared streams of abl-wear's three shrunken profiles,
// abl-phases' two and the fault campaign's hot profile.
const quickSimulations = 41

// goldenFile is the on-disk form of the pin.
type goldenFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// TestQuickSuiteGolden pins every simulated output the quick suite prints,
// plus a seed-42 run report per scheme: any change to a figure's cell, a
// report's field or its serialization fails here. Re-pin a deliberate change
// with
//
//	go test ./internal/experiments/ -run '^TestQuickSuiteGolden$' -update
//
// and say in the change why every moved digest moved.
func TestQuickSuiteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse x*y+z into one FMA instruction on other
		// architectures (arm64 does), which can move a float cell.
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	opts := QuickOptions()
	got := map[string]string{}
	s := NewSuite(opts)
	s.Prefill(2)
	for _, oc := range RunAll(s, All(), 2) {
		got["suite-quick/"+oc.Experiment.ID] = tableDigest(oc.Tables)
	}
	// The suite-quick benchmark's op count is Simulations() × Requests over
	// the wall time, so a change that opens a memo key would raise its
	// throughput without running anything faster.
	if n := s.Simulations(); n != quickSimulations {
		t.Errorf("the quick suite memoized %d simulations, want %d", n, quickSimulations)
	}
	for key, rep := range pinnedRuns(s) {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = digest(buf.Bytes())
	}

	if *update {
		data, err := json.MarshalIndent(goldenFile{Seed: opts.Seed, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d digests in %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if want.Seed != opts.Seed {
		t.Fatalf("%s pins seed %d, the quick suite runs seed %d", goldenPath, want.Seed, opts.Seed)
	}
	keys := make([]string, 0, len(got)+len(want.Digests))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want.Digests {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch g, w := got[k], want.Digests[k]; {
		case w == "":
			t.Errorf("%s: not pinned (digest %.12s)", k, g)
		case g == "":
			t.Errorf("%s: pinned but no longer produced", k)
		case g != w:
			t.Errorf("%s: digest %.12s, pinned %.12s", k, g, w)
		}
	}
}

// pinnedRuns returns the run reports the pin covers, keyed "run/<scheme>":
// each scheme on the suite's lbm profile with a live generator, the
// timeline and the attribution recorder on; the same DeWrite run over four
// shards; and a SecureNVM replay of the materialized trace through
// sim.RunTrace.
func pinnedRuns(s *Suite) map[string]sim.RunReport {
	var prof workload.Profile
	for _, p := range s.Opts.Profiles() {
		if p.Name == "lbm" {
			prof = p
		}
	}
	opts := func() sim.Options {
		o := s.simOptions()
		o.Timeline = timeline.NewByRequests(uint64(o.Requests/64), 0)
		o.Attr = attr.NewRecorder(64, o.Seed)
		return o
	}
	out := map[string]sim.RunReport{}
	for _, sch := range perfSchemes {
		res, mem := sim.RunScheme(sch, prof, s.Config(), opts())
		out["run/"+sch.String()] = sim.NewRunReport(res, mem)
	}
	sharded := sim.RunSharded(sim.SchemeDeWrite, prof, s.Config(),
		sim.ShardedOptions{Options: opts(), Shards: 4, Workers: 2})
	out["run/DeWrite/shards=4"] = sim.NewRunReport(sharded, nil)

	tr := workload.Generate(prof, s.Opts.Seed, s.Opts.Requests)
	mem := sim.NewMemory(sim.SchemeSecureNVM, prof.WorkingSetLines, s.Config())
	out["run/SecureNVM/trace"] = sim.NewRunReport(sim.RunTrace(tr, mem, s.Opts.Warmup), mem)
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tableDigest hashes an experiment's tables, leaving out the columns whose
// header says "this host" (host-clock measurements, which benchdiff skips
// for the same reason).
func tableDigest(tables []*stats.Table) string {
	type table struct {
		Title   string
		Columns []string
		Rows    [][]string
	}
	var out []table
	for _, tb := range tables {
		var keep []int
		t := table{Title: tb.Title}
		for i, col := range tb.Columns {
			if !strings.Contains(col, "this host") {
				keep = append(keep, i)
				t.Columns = append(t.Columns, col)
			}
		}
		for r := 0; r < tb.NumRows(); r++ {
			row := make([]string, 0, len(keep))
			for _, i := range keep {
				row = append(row, tb.Cell(r, i))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return digest(data)
}

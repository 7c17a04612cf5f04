package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"dewrite/internal/core"
	"dewrite/internal/nvm"
	"dewrite/internal/sim"
)

func quickSuite() *Suite { return NewSuite(QuickOptions()) }

// cell parses a numeric table cell.
func cell(t *testing.T, tb interface {
	Cell(int, int) string
	NumRows() int
}, row, col int) float64 {
	t.Helper()
	s := tb.Cell(row, col)
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric: %v", row, col, s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig4", "fig6", "fig7", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "tablemeta",
		"abl-pna", "abl-history", "abl-refwidth", "abl-modes",
		"abl-hashwidth", "abl-wear", "abl-persist", "abl-hierarchy", "abl-cachescale",
		"abl-openloop", "abl-bus", "abl-phases", "abl-integrity", "abl-seeds",
		"abl-rowpolicy", "faultcampaign", "tail"}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestTableIShapes(t *testing.T) {
	tabs := TableI(quickSuite())
	if len(tabs) != 2 {
		t.Fatalf("TableI returned %d tables", len(tabs))
	}
	a := tabs[0]
	// CRC-32 hardware latency (row 2) far below SHA-1/MD5.
	if !strings.Contains(a.Cell(2, 1), "15ns") {
		t.Errorf("CRC-32 latency cell = %q", a.Cell(2, 1))
	}
	if !strings.Contains(a.Cell(0, 1), "321ns") {
		t.Errorf("SHA-1 latency cell = %q", a.Cell(0, 1))
	}
	b := tabs[1]
	// DeWrite's duplicate-detection latency must be far below an NVM write.
	if !strings.Contains(b.Cell(0, 2), "ns") {
		t.Errorf("detection cell = %q", b.Cell(0, 2))
	}
}

func TestFigure2Shapes(t *testing.T) {
	s := quickSuite()
	tb := Figure2(s)[0]
	// One row per quick app + average.
	if tb.NumRows() != len(s.Opts.Profiles())+1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Every dup% in (0,100); blackscholes highest, vips lowest.
	var bs, vips float64
	for r := 0; r < tb.NumRows()-1; r++ {
		dup := cell(t, tb, r, 2)
		if dup < 0 || dup > 100 {
			t.Fatalf("dup%% out of range: %v", dup)
		}
		switch tb.Cell(r, 0) {
		case "blackscholes":
			bs = dup
		case "vips":
			vips = dup
		}
	}
	if bs <= vips {
		t.Fatalf("blackscholes (%v) should exceed vips (%v)", bs, vips)
	}
	if bs < 90 || vips > 30 {
		t.Fatalf("extremes off: bs=%v vips=%v", bs, vips)
	}
}

func TestFigure4Shapes(t *testing.T) {
	tb := Figure4(quickSuite())[0]
	last := tb.NumRows() - 1
	one := cell(t, tb, last, 1)
	three := cell(t, tb, last, 2)
	if one < 80 || one > 100 {
		t.Fatalf("1-bit accuracy = %v, want ~92", one)
	}
	if three < one-1 {
		t.Fatalf("3-bit (%v) should not be below 1-bit (%v)", three, one)
	}
}

func TestFigure6CollisionsRare(t *testing.T) {
	tb := Figure6(quickSuite())[0]
	avg := cell(t, tb, tb.NumRows()-1, 4)
	if avg > 0.1 {
		t.Fatalf("average collision rate %v%% too high", avg)
	}
}

func TestFigure7Distribution(t *testing.T) {
	tb := Figure7(quickSuite())[0]
	for r := 0; r < tb.NumRows(); r++ {
		p50 := cell(t, tb, r, 2)
		max := cell(t, tb, r, 5)
		if p50 < 1 {
			t.Fatalf("%s: P50 = %v", tb.Cell(r, 0), p50)
		}
		if max < p50 {
			t.Fatalf("%s: max < P50", tb.Cell(r, 0))
		}
	}
}

func TestFigure12WriteReduction(t *testing.T) {
	tb := Figure12(quickSuite())[0]
	last := tb.NumRows() - 1
	exist := cell(t, tb, last, 1)
	elim := cell(t, tb, last, 2)
	if exist < 40 || exist > 75 {
		t.Fatalf("existing dup avg = %v%%, want ~58%%", exist)
	}
	// Eliminated tracks existing within a few points (paper: 54 vs 58).
	if elim < exist-10 || elim > exist+3 {
		t.Fatalf("eliminated avg = %v%% vs existing %v%%", elim, exist)
	}
}

func TestFigure13Ordering(t *testing.T) {
	tb := Figure13(quickSuite())[0]
	last := tb.NumRows() - 1
	dcw := cell(t, tb, last, 1)
	fnw := cell(t, tb, last, 2)
	deuce := cell(t, tb, last, 3)
	dwDCW := cell(t, tb, last, 7)
	dwFNW := cell(t, tb, last, 8)
	dwDEUCE := cell(t, tb, last, 9)
	// Paper: DCW ~50, FNW ~43, DEUCE lower; DeWrite halves each.
	if !(dcw > fnw && fnw > deuce) {
		t.Fatalf("ordering broken: DCW=%v FNW=%v DEUCE=%v", dcw, fnw, deuce)
	}
	if dcw < 40 || dcw > 55 {
		t.Fatalf("DCW = %v, want ~50", dcw)
	}
	if dwDCW >= dcw*0.7 || dwFNW >= fnw*0.7 || dwDEUCE >= deuce*0.7 {
		t.Fatalf("DeWrite stacking too weak: %v/%v/%v vs %v/%v/%v",
			dwDCW, dwFNW, dwDEUCE, dcw, fnw, deuce)
	}
	// Shredder helps less than DeWrite.
	shrDCW := cell(t, tb, last, 4)
	if shrDCW <= dwDCW {
		t.Fatalf("Shredder+DCW (%v) should stay above DeWrite+DCW (%v)", shrDCW, dwDCW)
	}
}

func TestFigure14WriteSpeedups(t *testing.T) {
	s := quickSuite()
	tb := Figure14(s)[0]
	// Speedup should increase with duplication ratio: vips lowest,
	// blackscholes highest.
	vals := map[string]float64{}
	for r := 0; r < tb.NumRows()-2; r++ {
		vals[tb.Cell(r, 0)] = cell(t, tb, r, 1)
	}
	// Monotone in duplication ratio (blackscholes and lbm can tie at quick
	// scale, so compare across the wider gaps).
	if vals["blackscholes"] <= vals["mcf"] || vals["mcf"] <= vals["vips"] {
		t.Fatalf("speedup not monotone in dup ratio: %v", vals)
	}
	if vals["lbm"] <= vals["bzip2"] {
		t.Fatalf("lbm (%v) should beat bzip2 (%v)", vals["lbm"], vals["bzip2"])
	}
	if vals["blackscholes"] < 2 {
		t.Fatalf("blackscholes speedup = %v, want large", vals["blackscholes"])
	}
}

func TestFigure15DeWriteTracksParallel(t *testing.T) {
	tb := Figure15(quickSuite())[0]
	last := tb.NumRows() - 1
	par := cell(t, tb, last, 2)
	dw := cell(t, tb, last, 3)
	if par > 1.001 {
		t.Fatalf("parallel way (%v) should not exceed direct way", par)
	}
	if dw > par+0.12 {
		t.Fatalf("DeWrite (%v) should track the parallel way (%v)", dw, par)
	}
}

func TestFigure16ReadSpeedups(t *testing.T) {
	tb := Figure16(quickSuite())[0]
	vals := map[string]float64{}
	for r := 0; r < tb.NumRows()-2; r++ {
		vals[tb.Cell(r, 0)] = cell(t, tb, r, 1)
	}
	if vals["blackscholes"] <= 1.2 {
		t.Fatalf("blackscholes read speedup = %v, want > 1.2", vals["blackscholes"])
	}
}

func TestFigure17IPC(t *testing.T) {
	// The quick subset deliberately spans the extremes (vips at 18.6 % dup
	// up to blackscholes at 98.4 %), so its average sits below the full
	// suite's. Assert the shape: gains grow with duplication, high-dup apps
	// win clearly, and even the worst app stays near parity.
	tb := Figure17(quickSuite())[0]
	vals := map[string]float64{}
	for r := 0; r < tb.NumRows()-1; r++ {
		vals[tb.Cell(r, 0)] = cell(t, tb, r, 1)
	}
	if vals["blackscholes"] <= vals["vips"] {
		t.Fatalf("relative IPC not increasing with dup ratio: %v", vals)
	}
	if vals["lbm"] < 1.2 {
		t.Fatalf("lbm relative IPC = %v, want > 1.2", vals["lbm"])
	}
	if vals["vips"] < 0.8 {
		t.Fatalf("vips relative IPC = %v, want near parity", vals["vips"])
	}
	if avg := cell(t, tb, tb.NumRows()-1, 1); avg < 0.95 {
		t.Fatalf("quick-subset average relative IPC = %v, want >= 0.95", avg)
	}
}

func TestFigure18WorstCase(t *testing.T) {
	tb := Figure18(quickSuite())[0]
	for r := 0; r < tb.NumRows(); r++ {
		v := cell(t, tb, r, 1)
		if v < 0.85 || v > 1.15 {
			t.Fatalf("worst-case %s = %v, want ≈1", tb.Cell(r, 0), v)
		}
	}
}

func TestFigure19Energy(t *testing.T) {
	tb := Figure19(quickSuite())[0]
	avg := cell(t, tb, tb.NumRows()-1, 1)
	if avg >= 1 {
		t.Fatalf("average relative energy = %v, want < 1", avg)
	}
	if avg < 0.3 {
		t.Fatalf("average relative energy = %v, implausibly low", avg)
	}
}

func TestFigure20EnergyOrdering(t *testing.T) {
	tb := Figure20(quickSuite())[0]
	last := tb.NumRows() - 1
	dir := cell(t, tb, last, 1)
	dw := cell(t, tb, last, 2)
	if dir > 1.001 {
		t.Fatalf("direct way energy (%v) should be below parallel", dir)
	}
	if dw > dir+0.1 {
		t.Fatalf("DeWrite energy (%v) should track the direct way (%v)", dw, dir)
	}
}

func TestFigure21HitRatesImproveWithSize(t *testing.T) {
	tabs := Figure21(quickSuite())
	if len(tabs) != 4 {
		t.Fatalf("Figure21 returned %d tables", len(tabs))
	}
	hash := tabs[0]
	first := cell(t, hash, 0, 1)
	lastV := cell(t, hash, hash.NumRows()-1, 1)
	if lastV < first-0.5 {
		t.Fatalf("hash hit rate decreased with size: %v -> %v", first, lastV)
	}
	// FSM should be ~always hot even when small.
	fsm := tabs[3]
	if v := cell(t, fsm, 0, 1); v < 90 {
		t.Fatalf("tiny FSM cache hit rate = %v, want > 90", v)
	}
}

func TestTableMetaOverhead(t *testing.T) {
	tabs := TableMeta(quickSuite())
	main, cmp := tabs[0], tabs[1]
	measured := cell(t, main, main.NumRows()-1, 2)
	if measured < 5.5 || measured > 7.5 {
		t.Fatalf("measured overhead = %v%%, want ≈6.25-6.7%%", measured)
	}
	deuce := cell(t, cmp, 0, 1)
	dewrite := cell(t, cmp, 1, 1)
	if dewrite >= deuce+1 {
		t.Fatalf("DeWrite overhead (%v) should be comparable or below DEUCE (%v)", dewrite, deuce)
	}
}

func TestSuiteMemoization(t *testing.T) {
	s := quickSuite()
	p := s.Opts.Profiles()[0]
	r1 := s.Run(0, p)
	r2 := s.Run(0, p)
	if r1 != r2 {
		t.Fatal("memoized runs differ")
	}
}

// TestPrefillKeepsNoMemory checks that the memoized grid holds results
// without their final memories, so the suite does not keep a controller and
// device alive for every (application, scheme) run.
func TestPrefillKeepsNoMemory(t *testing.T) {
	s := quickSuite()
	s.Prefill(2)
	if want := len(s.Opts.Profiles()) * len(perfSchemes); len(s.runs) != want {
		t.Fatalf("%d memoized runs, want %d", len(s.runs), want)
	}
	for key, e := range s.runs {
		if e.v.FinalMemory() != nil {
			t.Errorf("memoized run %q keeps its final memory", key)
		}
	}
}

// plant fills the memo cell under key with v, as if v had been computed.
func plant[T any](s *Suite, m map[string]*memo[T], key string, v T) {
	e := memoCell(&s.mu, m, key)
	e.once.Do(func() { e.v = v })
}

// TestDefaultCellsReadTheMemo plants sentinel values in a quick suite's memo
// cells and requires exactly the rows whose inputs equal a memoized pass's to
// print them. The default rows of the DeWrite sweeps and Figure 21(a)'s row
// at the suite's hash-cache size read the default replay; abl-hierarchy,
// abl-bus and abl-rowpolicy at the suite's configuration, and abl-seeds at
// the suite's seed, read Suite.Run. Every other row simulates.
func TestDefaultCellsReadTheMemo(t *testing.T) {
	s := quickSuite()
	for _, prof := range s.Opts.Profiles() {
		plant(s, s.reports, profileKey(prof), replay{
			report:      core.Report{Writes: 4000, DupEliminated: 1000, MetaNVMWrites: 1000, TreeUpdates: 1000},
			hashHitRate: 0.25,
			// No probes: Figure 21's other partitions replay nothing.
			meta:    core.New(s.coreOptions(prof)).RecordMeta(),
			flushed: 1000,
		})
	}
	for _, prof := range s.ablationApps() {
		plant(s, s.runs, runKey(sim.SchemeDeWrite, prof), sim.Result{
			Device:      nvm.Stats{Writes: 1000},
			WriteLatSum: 1, ReadLatSum: 1, IPC: 1000,
		})
		plant(s, s.runs, runKey(sim.SchemeSecureNVM, prof), sim.Result{
			WriteLatSum: 1000, ReadLatSum: 1000, IPC: 1,
		})
	}

	def := s.Config()
	checks := []struct {
		id        string
		col       int    // the column that shows the sentinel
		want      string // the sentinel as printed
		isDefault func(row []string) bool
	}{
		{"abl-pna", 2, "25", func(r []string) bool { return r[1] == onOff(def.Dedup.PNAEnabled) }},
		{"abl-history", 3, "25", func(r []string) bool { return r[1] == fmt.Sprint(def.Dedup.HistoryBits) }},
		{"abl-refwidth", 2, "25", func(r []string) bool { return r[1] == fmt.Sprint(def.Dedup.MaxReference) }},
		{"abl-hashwidth", 2, "25", func(r []string) bool { return r[1] == fmt.Sprint(def.Dedup.HashSizeBits) }},
		{"abl-integrity", 4, "1000", func(r []string) bool { return r[1] == "off" }},
		{"abl-persist", 5, "1000", func(r []string) bool { return r[1] == core.PersistBatteryBacked.String() }},
		{"fig21", 1, "25", func(r []string) bool { return r[0] == fmt.Sprint(def.MetaCache.HashBytes/1024) }},
		{"abl-hierarchy", 3, "1000", func(r []string) bool { return r[1] == "off" }},
		{"abl-bus", 2, "1000", func(r []string) bool { return r[1] == "off" }},
		{"abl-rowpolicy", 2, "1000", func(r []string) bool { return r[1] == "open-page" }},
		// Each row aggregates the seeds, the suite's among them: its max.
		{"abl-seeds", 4, "1000", func([]string) bool { return true }},
	}
	var exps []Experiment
	for _, c := range checks {
		e, ok := ByID(c.id)
		if !ok {
			t.Fatalf("unknown experiment %q", c.id)
		}
		exps = append(exps, e)
	}
	for i, oc := range RunAll(s, exps, 2) {
		c := checks[i]
		tb := oc.Tables[0]
		defaults := 0
		for r := 0; r < tb.NumRows(); r++ {
			row := make([]string, len(tb.Columns))
			for col := range row {
				row[col] = tb.Cell(r, col)
			}
			isDefault := c.isDefault(row)
			if isDefault {
				defaults++
			}
			if shown := row[c.col] == c.want; shown != isDefault {
				t.Errorf("%s row %v: default %v, but shows the sentinel %v", c.id, row, isDefault, shown)
			}
		}
		if defaults == 0 {
			t.Errorf("%s: no row at the suite's inputs", c.id)
		}
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run is slow")
	}
	s := quickSuite()
	for _, e := range All() {
		tabs := e.Run(s)
		if len(tabs) == 0 {
			t.Errorf("%s produced no tables", e.ID)
		}
		for _, tb := range tabs {
			if tb.NumRows() == 0 {
				t.Errorf("%s produced an empty table", e.ID)
			}
			if tb.String() == "" {
				t.Errorf("%s produced empty rendering", e.ID)
			}
		}
	}
}

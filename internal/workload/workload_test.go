package workload

import (
	"math"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/trace"
)

func TestProfilesMatchPaperHeadlines(t *testing.T) {
	ps := Profiles()
	if len(ps) != 20 {
		t.Fatalf("profiles = %d, want 20", len(ps))
	}
	spec, parsec := 0, 0
	for _, p := range ps {
		switch p.Suite {
		case "SPEC":
			spec++
		case "PARSEC":
			parsec++
		default:
			t.Errorf("%s: unknown suite %q", p.Name, p.Suite)
		}
	}
	if spec != 12 || parsec != 8 {
		t.Fatalf("SPEC/PARSEC = %d/%d, want 12/8", spec, parsec)
	}
	if mean := MeanDupRatio(ps); math.Abs(mean-0.58) > 0.01 {
		t.Fatalf("mean dup ratio = %.4f, want ≈0.58", mean)
	}
	if mean := MeanZeroRatio(ps); math.Abs(mean-0.16) > 0.015 {
		t.Fatalf("mean zero ratio = %.4f, want ≈0.16", mean)
	}
	// Named extremes.
	min, max := ps[0], ps[0]
	for _, p := range ps {
		if p.DupRatio < min.DupRatio {
			min = p
		}
		if p.DupRatio > max.DupRatio {
			max = p
		}
	}
	if min.Name != "vips" || math.Abs(min.DupRatio-0.186) > 1e-9 {
		t.Fatalf("min profile = %v", min)
	}
	if max.Name != "blackscholes" || math.Abs(max.DupRatio-0.984) > 1e-9 {
		t.Fatalf("max profile = %v", max)
	}
	// sjeng's duplicates are dominated by zero lines.
	sj, _ := ByName("sjeng")
	if sj.ZeroRatio < sj.DupRatio*0.75 {
		t.Fatalf("sjeng zero ratio %.2f not dominant within dup %.2f", sj.ZeroRatio, sj.DupRatio)
	}
	for _, p := range ps {
		if p.Suite == "SPEC" && p.Threads != 1 {
			t.Errorf("%s: SPEC should be single threaded", p.Name)
		}
		if p.Suite == "PARSEC" && p.Threads != 4 {
			t.Errorf("%s: PARSEC should run 4 threads", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("lbm"); !ok {
		t.Fatal("lbm missing")
	}
	if _, ok := ByName("doom"); ok {
		t.Fatal("unexpected profile")
	}
}

func TestMarkovStayTargets(t *testing.T) {
	p11, p00 := markovStay(0.5, 0.92)
	if math.Abs(p11-0.92) > 1e-9 || math.Abs(p00-0.92) > 1e-9 {
		t.Fatalf("symmetric case: p11=%v p00=%v", p11, p00)
	}
	// Extremes degenerate cleanly.
	if p11, p00 := markovStay(0, 0.92); p11 != 0 || p00 != 1 {
		t.Fatalf("r=0: %v %v", p11, p00)
	}
	if p11, p00 := markovStay(1, 0.92); p11 != 1 || p00 != 0 {
		t.Fatalf("r=1: %v %v", p11, p00)
	}
	// Infeasible same-state probability clamps instead of going negative.
	p11, p00 = markovStay(0.984, 0.92)
	if p11 < 0 || p11 > 1 || p00 < 0 || p00 > 1 {
		t.Fatalf("clamping failed: %v %v", p11, p00)
	}
}

func TestGeneratorHitsDupRatio(t *testing.T) {
	// Duplication states arrive in long Markov runs, so the effective sample
	// size is far below the write count; average over seeds and allow a few
	// points of slack.
	for _, name := range []string{"bzip2", "mcf", "lbm", "blackscholes", "vips"} {
		p, _ := ByName(name)
		var dup, writes uint64
		for seed := uint64(1); seed <= 3; seed++ {
			g := NewGenerator(p, seed*41)
			for i := 0; i < 40000; i++ {
				g.Next()
			}
			st := g.Stats()
			dup += st.Duplicates
			writes += st.Writes
		}
		got := float64(dup) / float64(writes)
		if math.Abs(got-p.DupRatio) > 0.04 {
			t.Errorf("%s: generated dup ratio %.3f, want %.3f", name, got, p.DupRatio)
		}
	}
}

func TestGeneratorZeroRatio(t *testing.T) {
	// Both a zero-dominated app and a low-zero app: copies of zero sources
	// must not snowball the zero fraction past the profile target.
	for _, name := range []string{"sjeng", "lbm"} {
		p, _ := ByName(name)
		g := NewGenerator(p, 7)
		const n = 40000
		for i := 0; i < n; i++ {
			g.Next()
		}
		st := g.Stats()
		got := float64(st.ZeroWrites) / float64(st.Writes)
		if math.Abs(got-p.ZeroRatio) > 0.05 {
			t.Fatalf("%s: zero ratio = %.3f, want %.3f", name, got, p.ZeroRatio)
		}
	}
}

func TestGeneratorTemporalClustering(t *testing.T) {
	// Figure 4: ~92 % of writes share the previous write's duplication state.
	p, _ := ByName("mcf") // mid-range dup ratio where 0.92 is feasible
	g := NewGenerator(p, 11)
	var prev, same, total uint64
	prevSet := false
	for i := 0; i < 60000; i++ {
		before := g.Stats().Duplicates
		req := g.Next()
		if req.Op != trace.Write {
			continue
		}
		isDup := g.Stats().Duplicates > before
		cur := uint64(0)
		if isDup {
			cur = 1
		}
		if prevSet {
			total++
			if cur == prev {
				same++
			}
		}
		prev, prevSet = cur, true
	}
	frac := float64(same) / float64(total)
	if math.Abs(frac-0.92) > 0.03 {
		t.Fatalf("same-state fraction = %.3f, want ≈0.92", frac)
	}
}

func TestGeneratorRequestsValid(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 3)
	for i := 0; i < 5000; i++ {
		req := g.Next()
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		if req.Addr >= p.WorkingSetLines {
			t.Fatalf("address %d beyond working set", req.Addr)
		}
		if req.Thread < 0 || req.Thread >= p.Threads {
			t.Fatalf("thread %d out of range", req.Thread)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := ByName("lbm")
	a, b := NewGenerator(p, 9), NewGenerator(p, 9)
	for i := 0; i < 2000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra.Op != rb.Op || ra.Addr != rb.Addr || ra.Gap != rb.Gap {
			t.Fatalf("streams diverged at request %d", i)
		}
		if string(ra.Data) != string(rb.Data) {
			t.Fatalf("payloads diverged at request %d", i)
		}
	}
}

func TestWorstCaseHasNoDuplicates(t *testing.T) {
	g := NewGenerator(WorstCase(), 5)
	for i := 0; i < 20000; i++ {
		g.Next()
	}
	st := g.Stats()
	if st.Duplicates != 0 {
		t.Fatalf("worst case produced %d duplicates", st.Duplicates)
	}
	if st.Writes == 0 {
		t.Fatal("no writes generated")
	}
}

func TestPartialRewriteSparseness(t *testing.T) {
	// Non-duplicate rewrites should modify few words (DEUCE realism).
	p, _ := ByName("bzip2")
	g := NewGenerator(p, 13)
	shadow := make(map[uint64][]byte)
	checked := 0
	for i := 0; i < 30000 && checked < 200; i++ {
		req := g.Next()
		if req.Op != trace.Write {
			continue
		}
		if old := shadow[req.Addr]; old != nil {
			diffWords := 0
			for w := 0; w < config.LineSize/2; w++ {
				if old[2*w] != req.Data[2*w] || old[2*w+1] != req.Data[2*w+1] {
					diffWords++
				}
			}
			// Either a sparse rewrite or a duplicate of something else;
			// sparse rewrites must stay well under a quarter of the line.
			if diffWords > 0 && diffWords <= p.RewriteWords {
				checked++
			}
		}
		shadow[req.Addr] = req.Data
	}
	if checked < 50 {
		t.Fatalf("observed only %d sparse rewrites", checked)
	}
}

func TestGenerateTrace(t *testing.T) {
	p, _ := ByName("ferret")
	tr := Generate(p, 1, 1000)
	if len(tr.Requests) != 1000 {
		t.Fatalf("requests = %d", len(tr.Requests))
	}
	if tr.Name != "ferret" || tr.Lines != p.WorkingSetLines {
		t.Fatal("trace header wrong")
	}
	s := tr.Summarize()
	if s.Writes == 0 || s.Reads == 0 {
		t.Fatal("degenerate trace")
	}
}

// TestGeneratorPanicsOnZeroWorkingSet also covers the other working set the
// generator cannot address: 2^32 lines or more, since it logs addresses as
// uint32. NewGenerator allocates nothing per line, so the largest valid size
// is cheap to check.
func TestGeneratorPanicsOnZeroWorkingSet(t *testing.T) {
	for _, ws := range []uint64{0, 1 << 32, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("working set of %d lines: expected panic", ws)
				}
			}()
			NewGenerator(Profile{WorkingSetLines: ws}, 1)
		}()
	}
	NewGenerator(Profile{WorkingSetLines: 1<<32 - 1}, 1)
}

func TestPhasedProfileSwitchesBehaviour(t *testing.T) {
	p := Profile{
		Name: "phased", Suite: "SYNTH",
		StateSame: 0.92, WriteFrac: 1.0, WorkingSetLines: 4096,
		Locality: 0.5, RewriteWords: 6, Threads: 1, MemGap: 10,
		Phases: []Phase{
			{DupRatio: 0.9, ZeroRatio: 0.3, Writes: 5000},
			{DupRatio: 0.1, ZeroRatio: 0.0, Writes: 5000},
		},
	}
	g := NewGenerator(p, 3)
	measure := func(n int) float64 {
		start := g.Stats()
		for i := 0; i < n; i++ {
			g.Next()
		}
		end := g.Stats()
		return float64(end.Duplicates-start.Duplicates) / float64(end.Writes-start.Writes)
	}
	hot := measure(5000)  // phase 1: heavy duplication
	cold := measure(5000) // phase 2: sparse duplication
	if hot < 0.75 {
		t.Fatalf("phase 1 dup ratio = %.2f, want ~0.9", hot)
	}
	if cold > 0.3 {
		t.Fatalf("phase 2 dup ratio = %.2f, want ~0.1", cold)
	}
	// Cycles back to the hot phase.
	hot2 := measure(5000)
	if hot2 < 0.6 {
		t.Fatalf("phase cycle broken: %.2f", hot2)
	}
}

func TestUnphasedProfilesUnaffected(t *testing.T) {
	p, _ := ByName("mcf")
	if len(p.Phases) != 0 {
		t.Fatal("canonical profiles must stay uniform")
	}
}

package memctrl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dewrite/internal/fault"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

func ns(v uint64) units.Time { return units.Time(v * uint64(units.Nanosecond)) }

func TestSingleRequest(t *testing.T) {
	cs := Simulate([]Request{{Arrive: ns(10), Op: Read, Addr: 5}}, DefaultConfig(), FCFS)
	if len(cs) != 1 {
		t.Fatalf("completions = %d", len(cs))
	}
	c := cs[0]
	if c.Start != ns(10) || c.Done != ns(85) {
		t.Fatalf("start/done = %v/%v, want 10ns/85ns", c.Start, c.Done)
	}
	if c.Latency() != 75*units.Nanosecond {
		t.Fatalf("latency = %v", c.Latency())
	}
}

func TestSameBankSerializes(t *testing.T) {
	// Lines 0 and 1 share a row (and bank); line 16 is row 1 = bank 1.
	reqs := []Request{
		{Arrive: 0, Op: Write, Addr: 0},
		{Arrive: ns(10), Op: Read, Addr: 1},  // queues behind the write
		{Arrive: ns(10), Op: Read, Addr: 16}, // independent bank
	}
	cs := Simulate(reqs, DefaultConfig(), FCFS)
	if cs[0].Done != ns(300) {
		t.Fatalf("write done = %v", cs[0].Done)
	}
	// The read starts at 300 and is a row hit (the write opened the row).
	if cs[1].Start != ns(300) || cs[1].Done != ns(315) {
		t.Fatalf("blocked read = %v..%v, want 300..315ns", cs[1].Start, cs[1].Done)
	}
	if !cs[1].Hit {
		t.Fatal("read after write to same row should be a row hit")
	}
	if cs[2].Start != ns(10) {
		t.Fatalf("other-bank read start = %v, want its arrival", cs[2].Start)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	// After the first read opens row 0, FR-FCFS picks the row-0 request
	// even though a same-bank request to another row arrived earlier
	// (rows 0 and 8 share bank 0 under 8 banks × 16-line rows).
	reqs := []Request{
		{Arrive: 0, Op: Read, Addr: 0},       // opens row 0
		{Arrive: ns(1), Op: Read, Addr: 128}, // row 8, same bank, earlier
		{Arrive: ns(2), Op: Read, Addr: 1},   // row 0, later arrival
	}
	fcfs := Simulate(reqs, DefaultConfig(), FCFS)
	frf := Simulate(reqs, DefaultConfig(), FRFCFS)
	// Under FCFS the row-1 read goes second; under FR-FCFS the row-0 read
	// jumps ahead and completes as a 15 ns hit.
	if fcfs[2].Done <= fcfs[1].Done {
		t.Fatal("FCFS should service in arrival order")
	}
	if frf[2].Done >= frf[1].Done {
		t.Fatal("FR-FCFS should service the row hit first")
	}
	if !frf[2].Hit {
		t.Fatal("promoted request should be a row hit")
	}
}

func TestReadFirstPrioritizesReads(t *testing.T) {
	// Three writes arrive just before a read; ReadFirst lets the read jump
	// the write queue (after the in-flight write completes).
	reqs := []Request{
		{Arrive: 0, Op: Write, Addr: 0},
		{Arrive: ns(1), Op: Write, Addr: 1},
		{Arrive: ns(2), Op: Write, Addr: 2},
		{Arrive: ns(3), Op: Read, Addr: 3},
	}
	fcfs := Summarize(Simulate(reqs, DefaultConfig(), FCFS))
	rf := Summarize(Simulate(reqs, DefaultConfig(), ReadFirst))
	if rf.MeanReadLat >= fcfs.MeanReadLat {
		t.Fatalf("ReadFirst read latency %v not below FCFS %v", rf.MeanReadLat, fcfs.MeanReadLat)
	}
}

func TestAllRequestsCompleteOnceProperty(t *testing.T) {
	src := rng.New(5)
	for _, policy := range []Policy{FCFS, FRFCFS, ReadFirst} {
		var reqs []Request
		for i := 0; i < 500; i++ {
			op := Read
			if src.Bool(0.4) {
				op = Write
			}
			reqs = append(reqs, Request{
				Arrive: units.Time(src.Uint64n(50000)) * units.Time(units.Nanosecond),
				Op:     op,
				Addr:   src.Uint64n(1024),
			})
		}
		cs := Simulate(reqs, DefaultConfig(), policy)
		if len(cs) != len(reqs) {
			t.Fatalf("%v: %d completions for %d requests", policy, len(cs), len(reqs))
		}
		for i, c := range cs {
			if c.Addr != reqs[i].Addr || c.Op != reqs[i].Op {
				t.Fatalf("%v: completion %d does not match its request", policy, i)
			}
			if c.Start < c.Arrive {
				t.Fatalf("%v: request %d started before arrival", policy, i)
			}
			if c.Done <= c.Start {
				t.Fatalf("%v: request %d has no service time", policy, i)
			}
		}
	}
}

func TestBankNeverOverlapsProperty(t *testing.T) {
	src := rng.New(7)
	var reqs []Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, Request{
			Arrive: units.Time(src.Uint64n(20000)) * units.Time(units.Nanosecond),
			Op:     Op(src.Intn(2)),
			Addr:   src.Uint64n(256),
		})
	}
	cfg := DefaultConfig()
	for _, policy := range []Policy{FCFS, FRFCFS, ReadFirst} {
		cs := Simulate(reqs, cfg, policy)
		// Per bank, service intervals must not overlap.
		type iv struct{ s, d units.Time }
		banks := map[int][]iv{}
		for _, c := range cs {
			b := int((c.Addr / cfg.RowLines) % uint64(cfg.Banks))
			banks[b] = append(banks[b], iv{c.Start, c.Done})
		}
		for b, ivs := range banks {
			for i := range ivs {
				for j := i + 1; j < len(ivs); j++ {
					a, c2 := ivs[i], ivs[j]
					if a.s < c2.d && c2.s < a.d {
						t.Fatalf("%v: bank %d intervals overlap", policy, b)
					}
				}
			}
		}
	}
}

func TestOpenLoopQueueingGrowsWithLoad(t *testing.T) {
	// Arrivals faster than the service rate must produce growing queues and
	// therefore much larger latencies than a lightly loaded run.
	mk := func(gapNS uint64) Summary {
		var reqs []Request
		for i := 0; i < 300; i++ {
			reqs = append(reqs, Request{
				Arrive: units.Time(uint64(i) * gapNS * uint64(units.Nanosecond)),
				Op:     Write,
				Addr:   uint64(i % 4), // one row, one bank
			})
		}
		return Summarize(Simulate(reqs, DefaultConfig(), FCFS))
	}
	light := mk(400) // slower than the 300 ns service
	heavy := mk(100) // 3x faster than service
	if heavy.MeanWriteLat < 10*light.MeanWriteLat {
		t.Fatalf("heavy load latency %v not far above light %v", heavy.MeanWriteLat, light.MeanWriteLat)
	}
}

func TestSummarize(t *testing.T) {
	cs := []Completion{
		{Request: Request{Op: Read}, Start: 0, Done: ns(100), Hit: true},
		{Request: Request{Op: Read}, Start: 0, Done: ns(200)},
		{Request: Request{Op: Write}, Start: 0, Done: ns(400)},
	}
	s := Summarize(cs)
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counts = %d/%d", s.Reads, s.Writes)
	}
	if s.MeanReadLat != 150*units.Nanosecond {
		t.Fatalf("mean read = %v", s.MeanReadLat)
	}
	if s.RowHitRate != 0.5 {
		t.Fatalf("hit rate = %v", s.RowHitRate)
	}
}

func TestPolicyStrings(t *testing.T) {
	if FCFS.String() != "FCFS" || FRFCFS.String() != "FR-FCFS" || ReadFirst.String() != "ReadFirst" {
		t.Fatal("policy names wrong")
	}
}

func TestWriteDrainForcesWritesAtWatermark(t *testing.T) {
	// DrainThreshold writes queued + one read: WriteDrain services a write
	// first; ReadFirst lets the read jump.
	// One extra write beyond the threshold: while the first write is in
	// service, DrainThreshold more queue up, so the watermark binds at the
	// first scheduling decision. All addresses live in row 0 (bank 0).
	var reqs []Request
	for i := 0; i <= DrainThreshold; i++ {
		reqs = append(reqs, Request{Arrive: ns(uint64(i)), Op: Write, Addr: uint64(i % 16)})
	}
	reqs = append(reqs, Request{Arrive: ns(uint64(DrainThreshold + 1)), Op: Read, Addr: 3})

	rf := Simulate(reqs, DefaultConfig(), ReadFirst)
	wd := Simulate(reqs, DefaultConfig(), WriteDrain)
	readIdx := len(reqs) - 1
	if wd[readIdx].Done <= rf[readIdx].Done {
		t.Fatalf("WriteDrain should delay the read behind the forced drain: %v vs %v",
			wd[readIdx].Done, rf[readIdx].Done)
	}
	// But WriteDrain bounds write buffering: its oldest write finishes no
	// later than under ReadFirst.
	if wd[0].Done > rf[0].Done {
		t.Fatalf("WriteDrain write completion %v worse than ReadFirst %v", wd[0].Done, rf[0].Done)
	}
}

func TestWriteDrainBelowWatermarkBehavesLikeReadFirst(t *testing.T) {
	reqs := []Request{
		{Arrive: 0, Op: Write, Addr: 0},
		{Arrive: ns(1), Op: Write, Addr: 1},
		{Arrive: ns(2), Op: Read, Addr: 2},
	}
	rf := Simulate(reqs, DefaultConfig(), ReadFirst)
	wd := Simulate(reqs, DefaultConfig(), WriteDrain)
	for i := range rf {
		if rf[i].Done != wd[i].Done {
			t.Fatalf("request %d diverged below watermark: %v vs %v", i, rf[i].Done, wd[i].Done)
		}
	}
}

// TestSimulateStatsGolden pins SimulateStats for seeded random request sets:
// the sha256 of every completion plus the wear-out census, per policy, with
// faults off and armed. The arrivals outpace the banks, so each bank keeps a
// deep pending queue and the schedulers pick from the middle of it; any
// change to which request a bank services next moves the digests.
func TestSimulateStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults fault.Config
		want   [4]string // FCFS, FR-FCFS, ReadFirst, WriteDrain
	}{
		{"clean", fault.Config{}, [4]string{
			"ad00516b7fc3035d7d3bcc76168f847dc32e9bf5b1321c5bbbd16686a02a9d36",
			"2d3d5ba82a0a3a52f815db0cccf954f7d37a470f563b53c10b6110050a53c146",
			"b05c1bc01689d33bc9beacc712ada17e7137c3d9b91be749ed43b8fef029ac26",
			"54f1f229250c8193bbeaa3858cf899e6b33cd6462369c739a6873bb8c5d5866c",
		}},
		{"faults", fault.Config{Seed: 11, Endurance: 6}, [4]string{
			"fed276f8b67b4d92ed2cb65227f46e79d7b06983ce3b6c72e7ef26dd6f479453",
			"edbed394c14a216f51be8984ee27c9bb9ddfb79392228e2d715118dcab449c85",
			"0548a066718701897aaa7b28972c78c78300d15b5c78ddd35805440f9aee4e48",
			"326ea173e3d9db3f14896d99e052acfe762a15ae78504df93aeaf5bf5660036c",
		}},
	} {
		src := rng.New(29)
		reqs := make([]Request, 4000)
		for i := range reqs {
			op := Read
			if src.Bool(0.5) {
				op = Write
			}
			reqs[i] = Request{
				Arrive: units.Time(src.Uint64n(4000*15)) * units.Time(units.Nanosecond),
				Op:     op,
				Addr:   src.Uint64n(512),
			}
		}
		cfg := DefaultConfig()
		cfg.Faults = tc.faults
		for i, policy := range []Policy{FCFS, FRFCFS, ReadFirst, WriteDrain} {
			cs, census := SimulateStats(reqs, cfg, policy)
			if tc.faults.Enabled() && (census.ECPCorrections == 0 || census.Remaps == 0 || census.StuckLines == 0) {
				t.Fatalf("%s/%v: wear-out ladder not exercised: %+v", tc.name, policy, census)
			}
			h := sha256.New()
			for _, c := range cs {
				fmt.Fprintf(h, "%d %d %d %d %d %t\n", c.Arrive, c.Op, c.Addr, c.Start, c.Done, c.Hit)
			}
			fmt.Fprintf(h, "%+v\n", census)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want[i] {
				t.Errorf("%s/%v: sha256 %s, want %s", tc.name, policy, got, tc.want[i])
			}
		}
	}
}

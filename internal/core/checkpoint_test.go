package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/fault"
	"dewrite/internal/rng"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// runMixed drives a mixed duplicate/unique workload and returns the shadow
// of expected contents.
func runMixed(t *testing.T, c *Controller, seed uint64, steps int) (map[uint64][]byte, units.Time) {
	t.Helper()
	src := rng.New(seed)
	pool := make([][]byte, 4)
	for i := range pool {
		pool[i] = fillLine(src)
	}
	shadow := make(map[uint64][]byte)
	var now units.Time
	for i := 0; i < steps; i++ {
		addr := src.Uint64n(512)
		var data []byte
		if src.Bool(0.6) {
			data = pool[src.Intn(len(pool))]
		} else {
			data = fillLine(src)
		}
		now = c.Write(now, addr, data)
		shadow[addr] = data
	}
	return shadow, now
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := smallController(ModeDeWrite)
	shadow, now := runMixed(t, c, 41, 1500)

	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}

	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	restored, err := Restore(bytes.NewReader(buf.Bytes()), Options{DataLines: 2048, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// Every line written before the power cycle reads back identically.
	var rnow units.Time
	for addr, want := range shadow {
		got, done := restored.Read(rnow, addr)
		rnow = done
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d lost across checkpoint", addr)
		}
	}
	if err := restored.Tables().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointedControllerKeepsDeduplicating(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(43)
	hot := fillLine(src)
	var now units.Time
	now = c.Write(now, 1, hot)
	now = c.Write(now, 2, hot) // dedup before the cycle

	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	// PNA off: the cold-booted predictor would otherwise skip the in-NVM
	// probe (a legitimate post-boot miss); this test targets hash-table
	// survival itself.
	cfg.Dedup.PNAEnabled = false
	restored, err := Restore(bytes.NewReader(buf.Bytes()), Options{DataLines: 2048, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// A post-restore duplicate of pre-cycle content must still dedup: the
	// hash table survived the power cycle.
	before := restored.Device().Stats().Writes
	restored.Write(0, 3, hot)
	if restored.Device().Stats().Writes != before {
		t.Fatal("pre-cycle content not recognized as duplicate after restore")
	}
	got, _ := restored.Read(0, 3)
	if !bytes.Equal(got, hot) {
		t.Fatal("restored dedup returned wrong data")
	}

	// Counter continuity: rewriting line 1 must not reuse an old pad.
	fresh := fillLine(src)
	restored.Write(0, 1, fresh)
	got1, _ := restored.Read(0, 1)
	if !bytes.Equal(got1, fresh) {
		t.Fatal("rewrite after restore corrupted")
	}
}

func TestCheckpointRejectsMismatchedCapacity(t *testing.T) {
	c := smallController(ModeDeWrite)
	_, now := runMixed(t, c, 47, 100)
	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{DataLines: 999, Config: cfg}); err == nil {
		t.Fatal("expected capacity mismatch error")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(strings.NewReader("not a checkpoint"), Options{DataLines: 2048}); err == nil {
		t.Fatal("expected error")
	}
}

// TestRestoreRequiresDataLines: the checkpoint header's line count is input,
// and the restored tables are sized by line address, so Restore takes the
// capacity from the caller and never adopts the header's.
func TestRestoreRequiresDataLines(t *testing.T) {
	c := smallController(ModeDeWrite)
	_, now := runMixed(t, c, 67, 100)
	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{Config: cfg}); err == nil ||
		!strings.Contains(err.Error(), "DataLines") {
		t.Fatalf("restore without DataLines: err = %v", err)
	}
}

// TestRestoreRejectsCounterBeyondDataLines: a counter section naming an
// address at or past DataLines is rejected before the counter table grows
// to it.
func TestRestoreRejectsCounterBeyondDataLines(t *testing.T) {
	valid, opts := fuzzCheckpoint(t)
	for _, addr := range []uint64{opts.DataLines, 1 << 40, 1<<64 - 1} {
		blob := withCounterAddr(valid, addr)
		var err error
		allocated := allocatedBytes(func() { _, err = Restore(bytes.NewReader(blob), opts) })
		if err == nil || !strings.Contains(err.Error(), "counter address") {
			t.Fatalf("counter at %#x: err = %v", addr, err)
		}
		if allocated >= 1<<20 {
			t.Fatalf("counter at %#x: rejection allocated %d bytes", addr, allocated)
		}
	}
	if _, err := Restore(bytes.NewReader(withCounterAddr(valid, opts.DataLines-1)), opts); err != nil &&
		strings.Contains(err.Error(), "counter address") {
		t.Fatalf("counter at the last data line rejected: %v", err)
	}
}

// TestRestoreTruncatedMidSection sweeps truncation points across a valid
// checkpoint — the magic, the line-count header, and strided cuts through
// the counter, table, and device sections — and requires a clean error from
// every prefix. A kill -9 mid-save (or a torn snapshot payload) hands
// Restore exactly these bytes.
func TestRestoreTruncatedMidSection(t *testing.T) {
	c := smallController(ModeDeWrite)
	_, now := runMixed(t, c, 59, 600)
	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)

	cuts := make(map[int]bool)
	for cut := 0; cut < 64 && cut < len(valid); cut++ {
		cuts[cut] = true // every boundary through the fixed-size header
	}
	for cut := 64; cut < len(valid); cut += 509 { // strided through the sections
		cuts[cut] = true
	}
	cuts[len(valid)-1] = true
	for cut := range cuts {
		if _, err := Restore(bytes.NewReader(valid[:cut]), Options{DataLines: 2048, Config: cfg}); err == nil {
			t.Fatalf("restore of %d/%d-byte prefix succeeded", cut, len(valid))
		}
	}
	// The untruncated checkpoint still loads (the sweep harness is sound).
	if _, err := Restore(bytes.NewReader(valid), Options{DataLines: 2048, Config: cfg}); err != nil {
		t.Fatalf("full checkpoint rejected: %v", err)
	}
}

// TestRestoreVersionSkew: a checkpoint whose magic names another version —
// newer, older, or a different format entirely (a snapshot manifest, a
// serve-level shard payload) — must be rejected at the magic, before any
// section parsing.
func TestRestoreVersionSkew(t *testing.T) {
	c := smallController(ModeDeWrite)
	_, now := runMixed(t, c, 61, 200)
	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)

	for _, magic := range []string{"DWCP2\n", "DWCP0\n", "DWSV1\n", "dwcp1\n"} {
		skewed := append([]byte(magic), valid[len(magic):]...)
		if _, err := Restore(bytes.NewReader(skewed), Options{DataLines: 2048, Config: cfg}); err == nil {
			t.Fatalf("restore accepted magic %q", magic)
		} else if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("magic skew %q error does not name the magic: %v", magic, err)
		}
	}
	// Higher-layer formats fed to the wrong parser: a snapshot manifest and
	// a serve shard payload are both hostile input here.
	for _, blob := range []string{
		`{"schema":"dewrite/snapshot/v1","generation":3,"files":[{"name":"shard-0","size":64,"crc32":7}]}`,
		"DWSV1\n\x00\x00\x00\x02{}",
	} {
		if _, err := Restore(strings.NewReader(blob), Options{DataLines: 2048, Config: cfg}); err == nil {
			t.Fatalf("restore accepted foreign format %q", blob[:12])
		}
	}
}

func TestCheckpointDeterministic(t *testing.T) {
	c := smallController(ModeDeWrite)
	_, now := runMixed(t, c, 53, 400)
	var a, b bytes.Buffer
	if err := c.SaveState(now, &a); err != nil {
		t.Fatal(err)
	}
	// A second save (caches already clean) must be byte-identical.
	if err := c.SaveState(now, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("checkpoint is not deterministic")
	}
}

// seededVips runs the first 30,000 requests of seed 42's vips stream over
// opts.DataLines lines on a new controller.
func seededVips(opts Options) (*Controller, units.Time) {
	prof, _ := workload.ByName("vips")
	prof.WorkingSetLines = opts.DataLines
	c := New(opts)
	gen := workload.NewGenerator(prof, 42)
	var now units.Time
	var line [config.LineSize]byte
	for i := 0; i < 30000; i++ {
		req := gen.Next()
		if req.Op == trace.Write {
			now = c.Write(now, req.Addr, req.Data)
		} else {
			now = c.ReadInto(now, req.Addr, line[:])
		}
	}
	return c, now
}

// TestRetirementsSurviveRestoreAndCrash: a faulted run's retired locations
// stay retired in a controller restored from its checkpoint and in one
// recovered from a crash, which rebuilds them from the device's stuck
// lines. The checkpoint stored no retirements and the crash scrub rebuilt
// none, so both came back with every stuck line allocatable.
func TestRetirementsSurviveRestoreAndCrash(t *testing.T) {
	opts := Options{DataLines: 1024, Config: config.Default(), TrackPersist: true,
		Faults: fault.Config{Seed: 7, Endurance: 40, ReadBER: 1e-3}}
	c, now := seededVips(opts)
	want := c.Tables().RetiredCount()
	if want == 0 {
		t.Fatal("the run retired nothing")
	}
	crashed, _, err := c.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if got := crashed.Tables().RetiredCount(); got != want {
		t.Errorf("crash recovery keeps %d of %d retired locations", got, want)
	}
	var buf bytes.Buffer
	if err := c.SaveState(now, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Tables().RetiredCount(); got != want {
		t.Errorf("restore keeps %d of %d retired locations", got, want)
	}
	for _, r := range []*Controller{crashed, restored} {
		if err := r.Tables().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveStateGolden pins the checkpoint bytes (DWCP1 around the counter
// section, DWDT2 tables and DWNV1 or, with faults armed, DWNV2 device state)
// of a seeded vips run, with and without faults: any change to the formats
// or to the simulated state they record moves the digests.
func TestSaveStateGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults fault.Config
		want   string
	}{
		{"clean", fault.Config{},
			"fe4df002d2ace12916822a1b79debfa5c400ad59f47793e3be808f02c9529ca0"},
		{"faults", fault.Config{Seed: 7, Endurance: 40, ReadBER: 1e-3},
			"7fe801f5cb88e0732009b91afb06f5069e3ebd58627e3754b9a0d0acdbd7d4d2"},
	} {
		c, now := seededVips(Options{DataLines: 1024, Config: config.Default(), Faults: tc.faults})
		if tc.faults.Enabled() {
			// The run must reach every fault structure the format carries.
			fs := c.Device().FaultStats()
			if fs.ECPCorrections == 0 || fs.Remaps == 0 || fs.StuckLines == 0 || c.Tables().RetiredCount() == 0 {
				t.Fatalf("%s: fault layer not exercised: %+v, %d retired", tc.name, fs, c.Tables().RetiredCount())
			}
		}
		h := sha256.New()
		if err := c.SaveState(now, h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: checkpoint sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

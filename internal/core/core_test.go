package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/hashes"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// smallController returns a controller over a small device for tests.
func smallController(mode Mode) *Controller {
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	return New(Options{DataLines: 2048, Config: cfg, Mode: mode})
}

func fillLine(src *rng.Source) []byte {
	b := make([]byte, config.LineSize)
	src.Fill(b)
	return b
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(1)
	line := fillLine(src)
	done := c.Write(0, 5, line)
	got, _ := c.Read(done, 5)
	if !bytes.Equal(got, line) {
		t.Fatal("read does not return written plaintext")
	}
}

func TestDataStoredEncrypted(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(2)
	line := fillLine(src)
	c.Write(0, 7, line)
	raw := c.Device().Peek(7)
	if bytes.Equal(raw, line) {
		t.Fatal("plaintext found in NVM — encryption missing")
	}
}

func TestDuplicateWriteEliminated(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(3)
	line := fillLine(src)
	c.Write(0, 1, line)
	before := c.Device().Stats().Writes
	c.Write(0, 2, line) // identical content, different logical line
	after := c.Device().Stats().Writes
	if after != before {
		t.Fatalf("duplicate write reached the device (%d -> %d)", before, after)
	}
	r := c.Report()
	if r.DupEliminated != 1 {
		t.Fatalf("DupEliminated = %d, want 1", r.DupEliminated)
	}
	// Both logical lines must read back the same content.
	got1, _ := c.Read(0, 1)
	got2, _ := c.Read(0, 2)
	if !bytes.Equal(got1, line) || !bytes.Equal(got2, line) {
		t.Fatal("dedup broke read contents")
	}
}

func TestDuplicateWriteFasterThanUnique(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(4)
	line := fillLine(src)
	uniqDone := c.Write(0, 1, line)
	uniqLat := uniqDone.Sub(0)
	// Warm the predictor toward duplicates not required: measure dup latency.
	start := uniqDone
	dupDone := c.Write(start, 2, line)
	dupLat := dupDone.Sub(start)
	if dupLat >= uniqLat {
		t.Fatalf("duplicate write latency %v not below unique %v", dupLat, uniqLat)
	}
}

func TestSelfRewriteSameContentIsDuplicate(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(5)
	line := fillLine(src)
	c.Write(0, 3, line)
	before := c.Device().Stats().Writes
	c.Write(0, 3, line) // silent store
	if c.Device().Stats().Writes != before {
		t.Fatal("silent store reached the device")
	}
	got, _ := c.Read(0, 3)
	if !bytes.Equal(got, line) {
		t.Fatal("content lost")
	}
}

func TestRewriteWhileReferencedDisplaces(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(6)
	shared := fillLine(src)
	c.Write(0, 1, shared)
	c.Write(0, 2, shared) // dedup: 2 → 1
	fresh := fillLine(src)
	c.Write(0, 1, fresh) // 1's old data still referenced by 2
	got1, _ := c.Read(0, 1)
	got2, _ := c.Read(0, 2)
	if !bytes.Equal(got1, fresh) {
		t.Fatal("rewritten line lost new data")
	}
	if !bytes.Equal(got2, shared) {
		t.Fatal("referencing line lost shared data")
	}
}

func TestReadUnwrittenReturnsZero(t *testing.T) {
	c := smallController(ModeDeWrite)
	got, _ := c.Read(0, 100)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten read not zero")
		}
	}
}

func TestGoldenReadYourWrites(t *testing.T) {
	// The golden invariant: any interleaving of writes and reads through the
	// full pipeline (dedup + encryption + placement + metadata caching)
	// returns the most recently written plaintext.
	c := smallController(ModeDeWrite)
	src := rng.New(7)
	shadow := make(map[uint64][]byte)
	var now units.Time
	// Content pool with heavy duplication to exercise every dedup path.
	pool := make([][]byte, 8)
	for i := range pool {
		pool[i] = fillLine(src)
	}
	f := func(addrRaw uint16, poolPick uint8, unique bool) bool {
		addr := uint64(addrRaw) % 512
		var line []byte
		if unique {
			line = fillLine(src)
		} else {
			line = pool[int(poolPick)%len(pool)]
		}
		now = c.Write(now, addr, line)
		shadow[addr] = line
		got, done := c.Read(now, addr)
		now = done
		if !bytes.Equal(got, shadow[addr]) {
			return false
		}
		// Spot-check one other previously written address.
		for other, want := range shadow {
			got2, done2 := c.Read(now, other)
			now = done2
			return bytes.Equal(got2, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
	if err := c.Tables().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllModesFunctionallyEquivalent(t *testing.T) {
	src := rng.New(8)
	pool := make([][]byte, 4)
	for i := range pool {
		pool[i] = fillLine(src)
	}
	type op struct {
		addr uint64
		data []byte
	}
	var ops []op
	for i := 0; i < 500; i++ {
		var data []byte
		if src.Bool(0.5) {
			data = pool[src.Intn(len(pool))]
		} else {
			data = fillLine(src)
		}
		ops = append(ops, op{addr: src.Uint64n(256), data: data})
	}
	results := make([][][]byte, 3)
	for mi, mode := range []Mode{ModeDeWrite, ModeDirect, ModeParallel} {
		c := smallController(mode)
		var now units.Time
		for _, o := range ops {
			now = c.Write(now, o.addr, o.data)
		}
		for addr := uint64(0); addr < 256; addr++ {
			got, done := c.Read(now, addr)
			now = done
			results[mi] = append(results[mi], got)
		}
	}
	for addr := 0; addr < 256; addr++ {
		if !bytes.Equal(results[0][addr], results[1][addr]) ||
			!bytes.Equal(results[0][addr], results[2][addr]) {
			t.Fatalf("modes disagree at address %d", addr)
		}
	}
}

func TestParallelModeWastesEncryption(t *testing.T) {
	c := smallController(ModeParallel)
	src := rng.New(9)
	line := fillLine(src)
	c.Write(0, 1, line)
	c.Write(0, 2, line) // duplicate, but parallel mode encrypted anyway
	r := c.Report()
	if r.AESWasted != 1 {
		t.Fatalf("AESWasted = %d, want 1", r.AESWasted)
	}
}

func TestDirectModeNeverWastesEncryption(t *testing.T) {
	c := smallController(ModeDirect)
	src := rng.New(10)
	line := fillLine(src)
	c.Write(0, 1, line)
	for i := uint64(2); i < 20; i++ {
		c.Write(0, i, line)
	}
	if r := c.Report(); r.AESWasted != 0 {
		t.Fatalf("AESWasted = %d, want 0", r.AESWasted)
	}
}

func TestDirectModeSlowerWritesForUniqueData(t *testing.T) {
	// For unique (non-duplicate) writes, direct mode serializes detection
	// and encryption while parallel overlaps them.
	latency := func(mode Mode) units.Duration {
		c := smallController(mode)
		src := rng.New(11)
		var now units.Time
		var sum units.Duration
		const n = 200
		for i := 0; i < n; i++ {
			line := fillLine(src)
			done := c.Write(now, uint64(i), line)
			sum += done.Sub(now)
			now = done
		}
		return sum / n
	}
	direct := latency(ModeDirect)
	parallel := latency(ModeParallel)
	if parallel >= direct {
		t.Fatalf("parallel (%v) not faster than direct (%v) on unique writes", parallel, direct)
	}
	dewrite := latency(ModeDeWrite)
	// On an all-unique stream, DeWrite predicts non-duplicate and should
	// match the parallel way closely.
	if dewrite > direct {
		t.Fatalf("DeWrite (%v) slower than direct (%v) on unique stream", dewrite, direct)
	}
}

func TestPNASkipSavesLatencyButMayMissDup(t *testing.T) {
	// Force the predictor toward non-duplicate, then write a duplicate whose
	// hash bucket is not cached: PNA should skip the probe and miss the dup.
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	cfg.MetaCache.HashBytes = 2 * 256 * 8 // tiny hash cache → misses
	c := New(Options{DataLines: 2048, Config: cfg, Mode: ModeDeWrite})
	src := rng.New(12)
	var now units.Time
	dup := fillLine(src)
	now = c.Write(now, 0, dup)
	// Flood with unique writes to bias the predictor to non-dup and to
	// evict the dup's hash line from the tiny cache.
	for i := uint64(1); i < 200; i++ {
		now = c.Write(now, i, fillLine(src))
	}
	before := c.Report().DupEliminated
	now = c.Write(now, 300, dup)
	r := c.Report()
	if r.DupEliminated != before && r.MissedByPNA == 0 {
		t.Skip("hash line happened to be cached; PNA not exercised")
	}
	if r.MissedByPNA == 0 {
		t.Fatalf("expected a PNA miss, report = %+v", r)
	}
	// Correctness must hold regardless.
	got, _ := c.Read(now, 300)
	if !bytes.Equal(got, dup) {
		t.Fatal("PNA miss corrupted data")
	}
}

// TestProbeOpCountedOnlyWhenProbed: a sampled write the PNA rule lets skip
// the in-NVM hash-table probe counts no probe op, although the controller
// still looks at the index to count a missed duplicate; a write whose hash
// line is cached counts exactly one.
func TestProbeOpCountedOnlyWhenProbed(t *testing.T) {
	c := smallController(ModeDeWrite)
	rec := attr.NewRecorder(1, 1)
	c.SetAttr(rec)
	probes := func() (n uint64) {
		for _, op := range rec.Report().Ops {
			if op.Op == attr.OpProbe.String() {
				n += op.Count
			}
		}
		return n
	}
	line := fillLine(rng.New(3))
	hashLine := c.layout.HashLine(hashes.CRC32(line) & c.hashMask)
	var now units.Time
	write := func(logical uint64) {
		rec.Begin(attr.KindWrite, 0, logical, now)
		now = c.Write(now, logical, line)
		rec.End(now)
	}

	if c.pred.Predict() || c.hashCache.Contains(hashLine) {
		t.Fatal("setup: a cold write is not a PNA skip")
	}
	write(0)
	if got := probes(); got != 0 {
		t.Fatalf("PNA-skipped write counted %d probe ops, want 0", got)
	}
	if !c.hashCache.Contains(hashLine) {
		t.Fatal("setup: the placed line's hash line is not cached")
	}
	write(1)
	if got := probes(); got != 1 {
		t.Fatalf("cached-hash-line write counted %d probe ops, want 1", got)
	}
	if r := c.Report(); r.DupEliminated != 1 {
		t.Fatalf("second write of the same line: %d duplicates eliminated, want 1", r.DupEliminated)
	}
}

func TestRefcountSaturationFallsBackToUnique(t *testing.T) {
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	cfg.Dedup.MaxReference = 3
	c := New(Options{DataLines: 2048, Config: cfg, Mode: ModeDeWrite})
	src := rng.New(13)
	line := fillLine(src)
	var now units.Time
	for i := uint64(0); i < 10; i++ {
		now = c.Write(now, i, line)
	}
	r := c.Report()
	if r.MissedBySat == 0 {
		t.Fatalf("expected saturation misses, report = %+v", r)
	}
	// All ten still read back correctly.
	for i := uint64(0); i < 10; i++ {
		got, done := c.Read(now, i)
		now = done
		if !bytes.Equal(got, line) {
			t.Fatalf("address %d corrupted after saturation", i)
		}
	}
	if err := c.Tables().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReductionTracksDuplicationRatio(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(14)
	pool := [][]byte{fillLine(src), fillLine(src)}
	var now units.Time
	const n = 1000
	dups := 0
	// 70% duplicates in runs (temporal clustering like real applications).
	state := false
	for i := 0; i < n; i++ {
		if src.Bool(0.1) {
			state = !state
		}
		wantDup := state || src.Bool(0.4)
		var line []byte
		if wantDup {
			line = pool[src.Intn(2)]
		} else {
			line = fillLine(src)
		}
		now = c.Write(now, src.Uint64n(1024), line)
		if wantDup {
			dups++
		}
	}
	r := c.Report()
	got := r.WriteReduction()
	// The first couple of pool writes are unique, and PNA can miss a few;
	// expect reduction within a few points of the true duplicate share.
	want := float64(dups) / n
	if got < want-0.10 || got > want+0.02 {
		t.Fatalf("write reduction = %.3f, true duplicate share = %.3f", got, want)
	}
}

func TestReportFields(t *testing.T) {
	c := smallController(ModeDeWrite)
	src := rng.New(15)
	line := fillLine(src)
	now := c.Write(0, 1, line)
	c.Read(now, 1)
	r := c.Report()
	if r.Mode != "DeWrite" {
		t.Fatalf("Mode = %q", r.Mode)
	}
	if r.Writes != 1 || r.Reads != 1 {
		t.Fatalf("Writes/Reads = %d/%d", r.Writes, r.Reads)
	}
	if r.CRCOps != 1 {
		t.Fatalf("CRCOps = %d", r.CRCOps)
	}
	if r.MeanWriteLat == 0 || r.MeanReadLat == 0 {
		t.Fatal("latencies not recorded")
	}
}

func TestModeString(t *testing.T) {
	if ModeDeWrite.String() != "DeWrite" || ModeDirect.String() != "Direct" ||
		ModeParallel.String() != "Parallel" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestBadInputsPanic(t *testing.T) {
	c := smallController(ModeDeWrite)
	for name, f := range map[string]func(){
		"short line":    func() { c.Write(0, 0, make([]byte, 8)) },
		"read oob":      func() { c.Read(0, 1<<40) },
		"zero capacity": func() { New(Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestZeroLineDeduplicates(t *testing.T) {
	// Zero lines (the Silent Shredder case) are just another duplicate class.
	c := smallController(ModeDeWrite)
	zero := make([]byte, config.LineSize)
	var now units.Time
	now = c.Write(now, 1, zero)
	before := c.Device().Stats().Writes
	for i := uint64(2); i < 30; i++ {
		now = c.Write(now, i, zero)
	}
	if got := c.Device().Stats().Writes - before; got != 0 {
		t.Fatalf("%d zero-line writes reached the device", got)
	}
}

func BenchmarkControllerWriteUnique(b *testing.B) {
	c := smallController(ModeDeWrite)
	src := rng.New(20)
	var now units.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := fillLine(src)
		now = c.Write(now, uint64(i)%2048, line)
	}
}

func BenchmarkControllerWriteDuplicate(b *testing.B) {
	c := smallController(ModeDeWrite)
	src := rng.New(21)
	line := fillLine(src)
	var now units.Time
	now = c.Write(now, 0, line)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = c.Write(now, uint64(i)%2048, line)
	}
}

func TestReportInternalConsistency(t *testing.T) {
	// Cross-component counter identities that must hold for any workload.
	c := smallController(ModeDeWrite)
	src := rng.New(77)
	pool := [][]byte{fillLine(src), fillLine(src)}
	var now units.Time
	for i := 0; i < 2000; i++ {
		var data []byte
		if src.Bool(0.6) {
			data = pool[src.Intn(2)]
		} else {
			data = fillLine(src)
		}
		now = c.Write(now, src.Uint64n(512), data)
		if src.Bool(0.3) {
			_, now = c.Read(now, src.Uint64n(512))
		}
	}
	r := c.Report()
	if r.DupEliminated != r.Dedup.Duplicates {
		t.Fatalf("DupEliminated (%d) != dedup Duplicates (%d)", r.DupEliminated, r.Dedup.Duplicates)
	}
	if r.Writes != r.Dedup.Duplicates+r.Dedup.Uniques {
		t.Fatalf("Writes (%d) != Duplicates (%d) + Uniques (%d)",
			r.Writes, r.Dedup.Duplicates, r.Dedup.Uniques)
	}
	if r.CRCOps != r.Writes {
		t.Fatalf("CRCOps (%d) != Writes (%d): every write is fingerprinted", r.CRCOps, r.Writes)
	}
	// Device data writes = unique placements; total device writes adds the
	// metadata write-backs.
	if r.Device.Writes != r.Dedup.Uniques+r.MetaNVMWrites {
		t.Fatalf("device writes (%d) != uniques (%d) + metadata writes (%d)",
			r.Device.Writes, r.Dedup.Uniques, r.MetaNVMWrites)
	}
	if err := c.Tables().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

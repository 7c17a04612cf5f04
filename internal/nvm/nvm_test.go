package nvm

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// testLines is the line count of testDevice.
var testLines = config.SmallNVM(1 * units.MB).Lines()

func testDevice() *Device {
	return New(config.SmallNVM(1*units.MB), config.DefaultTiming(), config.DefaultEnergy())
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d := testDevice()
	data, done := readLine(d, 0, 5)
	if done != units.Time(75*units.Nanosecond) {
		t.Fatalf("done = %v, want 75ns", done)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten line not zero")
		}
	}
}

func TestWriteThenRead(t *testing.T) {
	d := testDevice()
	line := make([]byte, config.LineSize)
	rng.New(1).Fill(line)
	done := demandWrite(d, 0, 9, line)
	if done != units.Time(300*units.Nanosecond) {
		t.Fatalf("write done = %v, want 300ns", done)
	}
	got, _ := readLine(d, done, 9)
	if !bytes.Equal(got, line) {
		t.Fatal("read does not return written data")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := testDevice()
	line := bytes.Repeat([]byte{0xaa}, config.LineSize)
	d.Poke(3, line)
	got, _ := readLine(d, 0, 3)
	got[0] = 0x55
	again := d.Peek(3)
	if again[0] != 0xaa {
		t.Fatal("Read exposed internal storage")
	}
}

func TestWriteCopiesInput(t *testing.T) {
	d := testDevice()
	line := make([]byte, config.LineSize)
	demandWrite(d, 0, 4, line)
	line[0] = 0xff
	if d.Peek(4)[0] != 0 {
		t.Fatal("Write aliased caller's buffer")
	}
}

func TestBankBlocking(t *testing.T) {
	d := testDevice()
	line := make([]byte, config.LineSize)

	// Two writes to the same row (lines 0 and 1 with 16-line rows) share a
	// bank and serialize.
	demandWrite(d, 0, 0, line)
	done := demandWrite(d, 0, 1, line)
	if done != units.Time(600*units.Nanosecond) {
		t.Fatalf("second same-row write done = %v, want 600ns", done)
	}

	// A write to the next row lands on a different bank and does not wait.
	done2 := demandWrite(d, 0, 16, line)
	if done2 != units.Time(300*units.Nanosecond) {
		t.Fatalf("different-bank write done = %v, want 300ns", done2)
	}
}

func TestReadBlockedByWrite(t *testing.T) {
	// The paper's core queueing effect: a read behind a write to the same
	// bank waits the full write latency.
	d := testDevice()
	line := make([]byte, config.LineSize)
	demandWrite(d, 0, 0, line)
	// The write leaves its row open, so the blocked read is a row hit:
	// 300 ns wait + 15 ns buffer read.
	_, done := readLine(d, 0, 0)
	if done != units.Time(315*units.Nanosecond) {
		t.Fatalf("read behind write done = %v, want 315ns", done)
	}
	st := d.Stats()
	if st.MeanReadWait != 300*units.Nanosecond {
		t.Fatalf("mean read wait = %v, want 300ns", st.MeanReadWait)
	}
	if st.RowHits != 1 {
		t.Fatalf("row hits = %d, want 1", st.RowHits)
	}
}

func TestWearTracking(t *testing.T) {
	d := testDevice()
	line := make([]byte, config.LineSize)
	for i := 0; i < 5; i++ {
		demandWrite(d, 0, 7, line)
	}
	demandWrite(d, 0, 8, line)
	if d.WearOf(7) != 5 || d.WearOf(8) != 1 {
		t.Fatalf("wear = %d/%d", d.WearOf(7), d.WearOf(8))
	}
	w := d.WearStats()
	if w.TotalWrites != 6 || w.TouchedLines != 2 || w.MaxPerLine != 5 {
		t.Fatalf("WearStats = %+v", w)
	}
	if w.MeanPerLine != 3 {
		t.Fatalf("MeanPerLine = %v", w.MeanPerLine)
	}
}

// byteFlips counts differing bits one byte at a time with Kernighan's loop:
// the independent oracle the word-wise BitDistance must match.
func byteFlips(a, b []byte) int {
	n := 0
	for i := range a {
		for x := a[i] ^ b[i]; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

func TestBitDistanceMatchesByteOracle(t *testing.T) {
	src := rng.New(11)
	for n := 0; n <= 2*config.LineSize; n++ {
		a, b := make([]byte, n), make([]byte, n)
		src.Fill(a)
		src.Fill(b)
		if got, want := BitDistance(a, b), byteFlips(a, b); got != want {
			t.Fatalf("len %d: BitDistance = %d, oracle %d", n, got, want)
		}
		if got := BitDistance(a, a); got != 0 {
			t.Fatalf("len %d: distance to itself = %d", n, got)
		}
	}
}

// TestBitsFlippedMatchesByteOracle checks the device's flip accounting over
// first writes (against the zero line), identical rewrites (no flips) and
// random old/new pairs.
func TestBitsFlippedMatchesByteOracle(t *testing.T) {
	d := testDevice()
	src := rng.New(12)
	zero := make([]byte, config.LineSize)
	stored := map[uint64][]byte{}
	var want uint64
	write := func(addr uint64, line []byte) {
		old, ok := stored[addr]
		if !ok {
			old = zero
		}
		want += uint64(byteFlips(old, line))
		demandWrite(d, 0, addr, line)
		stored[addr] = append([]byte(nil), line...)
		if got := d.Stats().BitsFlipped; got != want {
			t.Fatalf("line %d: BitsFlipped = %d, oracle %d", addr, got, want)
		}
	}
	line := make([]byte, config.LineSize)
	for addr := uint64(0); addr < 64; addr++ {
		src.Fill(line)
		write(addr, line) // first write
	}
	for addr := uint64(0); addr < 64; addr++ {
		before := d.Stats().BitsFlipped
		write(addr, stored[addr]) // identical rewrite
		if d.Stats().BitsFlipped != before {
			t.Fatalf("line %d: identical rewrite flipped bits", addr)
		}
	}
	for i := 0; i < 2000; i++ {
		addr := src.Uint64() % 64
		if src.Uint64()%2 == 0 {
			src.Fill(line)
		} else {
			// A sparse change: a few bits of the stored line.
			copy(line, stored[addr])
			line[src.Uint64()%config.LineSize] ^= byte(src.Uint64())
		}
		write(addr, line)
	}
}

// TestWriteAllocations pins the device write and read paths at zero
// allocations once a line has been touched, on caller stack buffers.
func TestWriteAllocations(t *testing.T) {
	d := testDevice()
	var now units.Time
	var i uint64
	step := func() {
		var line [config.LineSize]byte
		line[i%config.LineSize] = byte(i)
		now = demandWrite(d, now, i%64, line[:])
		now = d.ReadBypassInto(now, i%64, line[:])
		i++
	}
	for k := 0; k < 64; k++ {
		step()
	}
	if avg := testing.AllocsPerRun(500, step); avg != 0 {
		t.Errorf("steady-state write+read: %.2f allocs/op, want 0", avg)
	}
}

func TestPokeDoesNotWear(t *testing.T) {
	d := testDevice()
	d.Poke(2, make([]byte, config.LineSize))
	if d.WearOf(2) != 0 || d.Stats().Writes != 0 {
		t.Fatal("Poke affected wear or stats")
	}
}

func TestBitFlipAccounting(t *testing.T) {
	d := testDevice()
	line := make([]byte, config.LineSize)
	line[0] = 0x0f // 4 bits set
	demandWrite(d, 0, 1, line)
	st := d.Stats()
	if st.BitsFlipped != 4 {
		t.Fatalf("BitsFlipped = %d, want 4 (first write vs zero)", st.BitsFlipped)
	}
	line[0] = 0x03 // flips 2 bits relative to 0x0f
	demandWrite(d, 0, 1, line)
	st = d.Stats()
	if st.BitsFlipped != 6 {
		t.Fatalf("BitsFlipped = %d, want 6", st.BitsFlipped)
	}
	if st.BitsWritten != 2*config.LineBits {
		t.Fatalf("BitsWritten = %d", st.BitsWritten)
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := testDevice()
	e := config.DefaultEnergy()
	line := make([]byte, config.LineSize)
	demandWrite(d, 0, 0, line)
	readLine(d, 0, 0)  // row hit: the write opened the row
	readLine(d, 0, 20) // different row: array read
	want := e.NVMWriteLine + e.RowHitRead + e.NVMReadLine
	if got := d.Stats().EnergyPJ; got != want {
		t.Fatalf("EnergyPJ = %v, want %v", got, want)
	}
	d.AddEnergy(100)
	if got := d.Stats().EnergyPJ; got != want+100 {
		t.Fatalf("after AddEnergy = %v", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	readLine(d, 0, testLines)
}

func TestShortWritePanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	demandWrite(d, 0, 0, make([]byte, 10))
}

func TestReadYourWritesProperty(t *testing.T) {
	d := testDevice()
	src := rng.New(42)
	shadow := make(map[uint64][]byte)
	var now units.Time
	f := func(addrRaw uint16, fill byte) bool {
		addr := uint64(addrRaw) % testLines
		line := bytes.Repeat([]byte{fill}, config.LineSize)
		if src.Bool(0.5) {
			now = demandWrite(d, now, addr, line)
			shadow[addr] = line
		}
		got, done := readLine(d, now, addr)
		now = done
		want, ok := shadow[addr]
		if !ok {
			want = make([]byte, config.LineSize)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeMonotoneProperty(t *testing.T) {
	d := testDevice()
	src := rng.New(7)
	var now units.Time
	line := make([]byte, config.LineSize)
	for i := 0; i < 1000; i++ {
		addr := src.Uint64n(testLines)
		var done units.Time
		if src.Bool(0.3) {
			done = demandWrite(d, now, addr, line)
		} else {
			_, done = readLine(d, now, addr)
		}
		if done < now {
			t.Fatalf("completion %v before issue %v", done, now)
		}
		// Advance issue time by a small random step.
		now = now.Add(units.Duration(src.Uint64n(100)) * units.Nanosecond)
	}
}

func BenchmarkDeviceWrite(b *testing.B) {
	geom := config.SmallNVM(16 * units.MB)
	d := New(geom, config.DefaultTiming(), config.DefaultEnergy())
	line := make([]byte, config.LineSize)
	rng.New(1).Fill(line)
	var now units.Time
	for i := 0; i < b.N; i++ {
		now = demandWrite(d, now, uint64(i)%geom.Lines(), line)
	}
}

func TestChannelBusSerializesTransfers(t *testing.T) {
	geom := config.SmallNVM(1 * units.MB)
	geom.Channels = 1 // one shared bus for all 16 banks
	d := New(geom, config.DefaultTiming(), config.DefaultEnergy())

	// Two reads to different banks: array accesses overlap, but the single
	// channel serializes the two 16 ns bursts.
	_, done1 := readLine(d, 0, 0)
	_, done2 := readLine(d, 0, 16)
	if done1 != units.Time(91*units.Nanosecond) {
		t.Fatalf("first read done = %v, want 91ns (75 array + 16 bus)", done1)
	}
	if done2 != units.Time(107*units.Nanosecond) {
		t.Fatalf("second read done = %v, want 107ns (bus waits)", done2)
	}
}

func TestChannelBusDisabledByDefault(t *testing.T) {
	d := testDevice()
	_, done := readLine(d, 0, 0)
	if done != units.Time(75*units.Nanosecond) {
		t.Fatalf("read done = %v, want 75ns with bus modelling off", done)
	}
}

func TestChannelBusWriteTransfersBeforeProgram(t *testing.T) {
	geom := config.SmallNVM(1 * units.MB)
	geom.Channels = 1
	d := New(geom, config.DefaultTiming(), config.DefaultEnergy())
	line := make([]byte, config.LineSize)
	done := demandWrite(d, 0, 0, line)
	if done != units.Time(316*units.Nanosecond) {
		t.Fatalf("write done = %v, want 316ns (16 bus + 300 program)", done)
	}
}

func TestClosePagePolicyNeverHits(t *testing.T) {
	geom := config.SmallNVM(1 * units.MB)
	geom.ClosePage = true
	d := New(geom, config.DefaultTiming(), config.DefaultEnergy())
	line := make([]byte, config.LineSize)
	now := demandWrite(d, 0, 0, line)
	_, done := readLine(d, now, 0) // same row, but the page was closed
	if done.Sub(now) != 75*units.Nanosecond {
		t.Fatalf("closed-page read latency = %v, want full 75ns", done.Sub(now))
	}
	readLine(d, done, 0)
	if d.Stats().RowHits != 0 {
		t.Fatalf("row hits = %d under closed-page policy", d.Stats().RowHits)
	}
}

// sampleBrute recomputes what SampleEpoch's incremental views must report,
// straight from the authoritative wear table.
func sampleBrute(d *Device, dataLines uint64) (bw []uint64, vals []uint64) {
	bw = make([]uint64, len(d.banks))
	for i, n := range d.wear {
		if n == 0 {
			continue // never written
		}
		addr := uint64(i)
		bw[d.Bank(addr)] += n
		if dataLines == 0 || addr < dataLines {
			vals = append(vals, n)
		}
	}
	return bw, vals
}

// TestSampleEpochMatchesBruteForce pins the incremental bank-wear and wear-
// histogram maintenance against a full recompute: after the lazy seed,
// through further writes (the maintained path), and across a save/restore
// cycle (which invalidates the views).
func TestSampleEpochMatchesBruteForce(t *testing.T) {
	d := testDevice()
	const dataBound = 1000
	r := rng.New(99)
	line := make([]byte, config.LineSize)
	write := func(k int) {
		for i := 0; i < k; i++ {
			r.Fill(line)
			// Mix data-region and metadata-region addresses, with repeats.
			addr := r.Uint64() % 50
			if i%3 == 0 {
				addr = dataBound + r.Uint64()%20
			}
			demandWrite(d, 0, addr, line)
		}
	}
	check := func(stage string) {
		t.Helper()
		var e timeline.Epoch
		d.SampleEpoch(&e, 0, dataBound)
		wantBW, vals := sampleBrute(d, dataBound)
		if !slices.Equal(e.BankWear, wantBW) {
			t.Fatalf("%s: BankWear = %v, want %v", stage, e.BankWear, wantBW)
		}
		wMax, wMean, wGini, wCoV := timeline.Dist(vals)
		if e.WearMax != wMax || math.Abs(e.WearMean-wMean) > 1e-9 ||
			math.Abs(e.WearGini-wGini) > 1e-9 || math.Abs(e.WearCoV-wCoV) > 1e-9 {
			t.Fatalf("%s: dist = (%d %v %v %v), want (%d %v %v %v)",
				stage, e.WearMax, e.WearMean, e.WearGini, e.WearCoV, wMax, wMean, wGini, wCoV)
		}
	}
	write(40)
	check("after lazy seed")
	write(200) // exercises the incremental histogram updates
	check("after incremental updates")

	var buf bytes.Buffer
	if err := d.SaveContents(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := testDevice()
	if err := d2.LoadContents(&buf); err != nil {
		t.Fatal(err)
	}
	var e timeline.Epoch
	d2.SampleEpoch(&e, 0, dataBound)
	wantBW, vals := sampleBrute(d2, dataBound)
	if !slices.Equal(e.BankWear, wantBW) {
		t.Fatalf("after restore: BankWear = %v, want %v", e.BankWear, wantBW)
	}
	wMax, _, _, _ := timeline.Dist(vals)
	if e.WearMax != wMax {
		t.Fatalf("after restore: WearMax = %d, want %d", e.WearMax, wMax)
	}
	// And the restored device keeps maintaining correctly.
	for i := 0; i < 50; i++ {
		r.Fill(line)
		demandWrite(d2, 0, r.Uint64()%30, line)
	}
	var e2 timeline.Epoch
	d2.SampleEpoch(&e2, 0, dataBound)
	wantBW2, vals2 := sampleBrute(d2, dataBound)
	if !slices.Equal(e2.BankWear, wantBW2) {
		t.Fatalf("restored+written: BankWear = %v, want %v", e2.BankWear, wantBW2)
	}
	wMax2, wMean2, _, _ := timeline.Dist(vals2)
	if e2.WearMax != wMax2 || math.Abs(e2.WearMean-wMean2) > 1e-9 {
		t.Fatalf("restored+written: (%d %v), want (%d %v)", e2.WearMax, e2.WearMean, wMax2, wMean2)
	}
}

// demandWrite is a demand write and readLine a read into a fresh line: the
// forms the tests drive the device with.
func demandWrite(d *Device, now units.Time, addr uint64, data []byte) units.Time {
	return d.WriteTagged(now, addr, data, attr.CauseDemand)
}

func readLine(d *Device, now units.Time, addr uint64) ([]byte, units.Time) {
	out := make([]byte, config.LineSize)
	return out, d.ReadInto(now, addr, out)
}

package core

import (
	"bytes"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

func persistController(p PersistMode) *Controller {
	cfg := config.Default()
	cfg.NVM = config.SmallNVM(1 * units.MB)
	return New(Options{DataLines: 2048, Config: cfg, Persist: p})
}

func TestPersistModeStrings(t *testing.T) {
	if PersistBatteryBacked.String() != "battery-backed" {
		t.Fatal("battery-backed name wrong")
	}
	if PersistWriteThrough.String() != "write-through" {
		t.Fatal("write-through name wrong")
	}
	if PersistMode(7).String() != "PersistMode(7)" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestWriteThroughGeneratesMetadataWrites(t *testing.T) {
	src := rng.New(1)
	runWrites := func(p PersistMode) Report {
		c := persistController(p)
		var now units.Time
		for i := uint64(0); i < 200; i++ {
			line := make([]byte, config.LineSize)
			src.Fill(line)
			now = c.Write(now, i, line)
		}
		return c.Report()
	}
	wb := runWrites(PersistBatteryBacked)
	wt := runWrites(PersistWriteThrough)
	if wb.MetaNVMWrites != 0 {
		t.Fatalf("battery-backed flushed %d metadata lines mid-run", wb.MetaNVMWrites)
	}
	if wt.MetaNVMWrites == 0 {
		t.Fatal("write-through produced no metadata writes")
	}
	// Every metadata update writes through, so traffic is substantial.
	if wt.MetaNVMWrites < wt.Writes {
		t.Fatalf("write-through metadata writes (%d) below CPU writes (%d)",
			wt.MetaNVMWrites, wt.Writes)
	}
}

func TestWriteThroughKeepsCachesClean(t *testing.T) {
	c := persistController(PersistWriteThrough)
	src := rng.New(2)
	var now units.Time
	for i := uint64(0); i < 100; i++ {
		line := make([]byte, config.LineSize)
		src.Fill(line)
		now = c.Write(now, i, line)
	}
	if flushed := c.FlushMetadata(now); flushed != 0 {
		t.Fatalf("write-through left %d dirty metadata lines", flushed)
	}
}

func TestFlushMetadataDrainsBatteryBacked(t *testing.T) {
	c := persistController(PersistBatteryBacked)
	src := rng.New(3)
	var now units.Time
	for i := uint64(0); i < 100; i++ {
		line := make([]byte, config.LineSize)
		src.Fill(line)
		now = c.Write(now, i, line)
	}
	first := c.FlushMetadata(now)
	if first == 0 {
		t.Fatal("nothing flushed despite dirty metadata")
	}
	if again := c.FlushMetadata(now); again != 0 {
		t.Fatalf("second flush drained %d more lines", again)
	}
	r := c.Report()
	if r.MetaNVMWrites != uint64(first) {
		t.Fatalf("MetaNVMWrites = %d, want %d", r.MetaNVMWrites, first)
	}
}

func TestPersistModesFunctionallyEquivalent(t *testing.T) {
	// Persistence only changes traffic/timing, never data.
	src := rng.New(4)
	pool := make([][]byte, 3)
	for i := range pool {
		pool[i] = make([]byte, config.LineSize)
		src.Fill(pool[i])
	}
	type op struct {
		addr uint64
		data []byte
	}
	var ops []op
	for i := 0; i < 300; i++ {
		d := pool[src.Intn(3)]
		if src.Bool(0.4) {
			d = make([]byte, config.LineSize)
			src.Fill(d)
		}
		ops = append(ops, op{src.Uint64n(512), d})
	}
	read := func(p PersistMode) [][]byte {
		c := persistController(p)
		var now units.Time
		for _, o := range ops {
			now = c.Write(now, o.addr, o.data)
		}
		var out [][]byte
		for a := uint64(0); a < 512; a++ {
			d, done := c.Read(now, a)
			now = done
			out = append(out, d)
		}
		return out
	}
	a := read(PersistBatteryBacked)
	b := read(PersistWriteThrough)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("contents diverge at line %d", i)
		}
	}
}

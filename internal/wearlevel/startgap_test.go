package wearlevel

import (
	"testing"
	"testing/quick"

	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// modelDevice is a plain slot array with zero latency, used to verify the
// remap arithmetic against an explicit model.
type modelDevice struct {
	slots map[uint64][]byte
}

func newModelDevice() *modelDevice { return &modelDevice{slots: map[uint64][]byte{}} }

func (d *modelDevice) ReadInto(now units.Time, a uint64, dst []byte) units.Time {
	clear(dst)
	copy(dst, d.slots[a])
	return now
}

func (d *modelDevice) Write(now units.Time, a uint64, data []byte) units.Time {
	d.slots[a] = append([]byte(nil), data...)
	return now
}

func lineFor(tag byte) []byte {
	l := make([]byte, config.LineSize)
	l[0] = tag
	return l
}

func TestMappingIsInjectiveAndSkipsGap(t *testing.T) {
	sg := New(newModelDevice(), 0, 7, 1)
	// Drive many gap movements; after each, the mapping must be a bijection
	// from logical lines onto physical slots minus the gap.
	for step := 0; step < 50; step++ {
		seen := map[uint64]bool{}
		for la := uint64(0); la < 7; la++ {
			pa := sg.Physical(la)
			if pa >= 7+1 {
				t.Fatalf("step %d: slot %d out of range", step, pa)
			}
			if seen[pa] {
				t.Fatalf("step %d: slot %d mapped twice", step, pa)
			}
			seen[pa] = true
		}
		if len(seen) != 7 {
			t.Fatalf("step %d: %d slots mapped", step, len(seen))
		}
		sg.Write(0, uint64(step)%7, lineFor(byte(step))) // psi=1 → one move per write
	}
}

func TestReadYourWritesAcrossManyRotations(t *testing.T) {
	sg := New(newModelDevice(), 0, 5, 1)
	shadow := map[uint64]byte{}
	src := rng.New(9)
	var now units.Time
	got := make([]byte, config.LineSize)
	for i := 0; i < 500; i++ {
		la := src.Uint64n(5)
		tag := byte(src.Uint64())
		now = sg.Write(now, la, lineFor(tag))
		shadow[la] = tag
		// Verify every written line after every single write (the gap moves
		// each time, so this exercises the copy path hard).
		for l, want := range shadow {
			now = sg.ReadInto(now, l, got)
			if got[0] != want {
				t.Fatalf("write %d: logical %d reads %d, want %d", i, l, got[0], want)
			}
		}
	}
	st := sg.Stats()
	if st.GapMoves != 500 {
		t.Fatalf("GapMoves = %d, want 500", st.GapMoves)
	}
	if st.Rotations < 80 {
		t.Fatalf("Rotations = %d, want many full cycles", st.Rotations)
	}
}

func TestPsiControlsOverhead(t *testing.T) {
	dev := newModelDevice()
	sg := New(dev, 0, 16, 100)
	var now units.Time
	for i := 0; i < 1000; i++ {
		now = sg.Write(now, uint64(i)%16, lineFor(byte(i)))
	}
	st := sg.Stats()
	if st.GapMoves != 10 {
		t.Fatalf("GapMoves = %d, want 10 (1000 writes / psi 100)", st.GapMoves)
	}
	if st.Overhead != 0.01 {
		t.Fatalf("Overhead = %v, want 0.01", st.Overhead)
	}
}

func TestHotLineWearSpreadsAcrossSlots(t *testing.T) {
	// A single hot logical line hammered forever must, thanks to rotation,
	// spread its writes over every physical slot.
	const n = 8
	mem := baseline.NewSecureNVM(n+1, config.Default())
	dev := mem.Device()
	sg := New(mem, 0, n, 4)
	var now units.Time
	line := lineFor(0xab)
	for i := 0; i < 4000; i++ {
		now = sg.Write(now, 3, line) // always the same logical line
	}
	touched := 0
	var max uint64
	for slot := uint64(0); slot < n+1; slot++ {
		w := dev.WearOf(slot)
		if w > 0 {
			touched++
		}
		if w > max {
			max = w
		}
	}
	if touched != int(n+1) {
		t.Fatalf("hot line touched only %d of %d slots", touched, n+1)
	}
	// Without leveling, one slot would carry all 4000 writes.
	if max >= 4000 {
		t.Fatalf("max per-slot wear %d: no leveling happened", max)
	}
}

func TestRegionBaseOffset(t *testing.T) {
	dev := newModelDevice()
	sg := New(dev, 100, 4, 1)
	sg.Write(0, 0, lineFor(1))
	for a := range dev.slots {
		if a < 100 || a >= 100+4+1 {
			t.Fatalf("touched slot %d outside region", a)
		}
	}
}

func TestMappingMatchesExplicitModelProperty(t *testing.T) {
	// Model: explicitly track which logical line each slot holds, applying
	// the same copy the implementation performs, and check Physical agrees.
	const n = 6
	m := uint64(n + 1)      // the region plus its gap
	slots := make([]int, m) // logical line per slot, -1 = gap
	for i := 0; i < int(n); i++ {
		slots[i] = i
	}
	slots[n] = -1
	gap := uint64(n)

	sg := New(newModelDevice(), 0, n, 1)
	step := 0
	f := func(laRaw uint8) bool {
		la := uint64(laRaw) % n
		sg.Write(0, la, lineFor(byte(step))) // triggers one gap move
		step++
		// Apply the same move to the model.
		src := (gap + m - 1) % m
		slots[gap] = slots[src]
		slots[src] = -1
		gap = src
		// Compare mappings.
		for l := uint64(0); l < n; l++ {
			pa := sg.Physical(l)
			if slots[pa] != int(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(newModelDevice(), 0, 0, 1) },
		func() { New(newModelDevice(), 0, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPhysicalBoundsPanic(t *testing.T) {
	sg := New(newModelDevice(), 0, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sg.Physical(4)
}

// TestReadIntoWriteAllocations pins reads and writes through Start-Gap,
// gap moves included, at zero allocations over SecureNVM, as abl-wear
// stacks them, once every slot has been written: a read lands in the
// caller's line and a gap move copies through the layer's own scratch line.
func TestReadIntoWriteAllocations(t *testing.T) {
	const n = 8
	sg := New(baseline.NewSecureNVM(n+1, config.Default()), 0, n, 1) // psi=1: every write moves the gap
	line, got := lineFor(1), make([]byte, config.LineSize)
	var now units.Time
	for i := 0; i < 4*(n+1); i++ {
		now = sg.Write(now, uint64(i)%n, line)
	}
	var la uint64
	avg := testing.AllocsPerRun(200, func() {
		line[0]++
		now = sg.Write(now, la%n, line)
		now = sg.ReadInto(now, la%n, got)
		la++
	})
	if avg != 0 {
		t.Errorf("Write+ReadInto: %.2f allocs/op, want 0", avg)
	}
	if got[0] != line[0] {
		t.Errorf("read %d, want %d", got[0], line[0])
	}
}

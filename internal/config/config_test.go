package config

import (
	"testing"

	"dewrite/internal/units"
)

func TestDefaultTimingMatchesPaper(t *testing.T) {
	tm := DefaultTiming()
	if tm.NVMRead != 75*units.Nanosecond {
		t.Errorf("NVMRead = %v, want 75ns", tm.NVMRead)
	}
	if tm.NVMWrite != 300*units.Nanosecond {
		t.Errorf("NVMWrite = %v, want 300ns", tm.NVMWrite)
	}
	if tm.AESLine != 96*units.Nanosecond {
		t.Errorf("AESLine = %v, want 96ns", tm.AESLine)
	}
	if tm.CRC32 != 15*units.Nanosecond {
		t.Errorf("CRC32 = %v, want 15ns", tm.CRC32)
	}
	if tm.SHA1 != 321*units.Nanosecond || tm.MD5 != 312*units.Nanosecond {
		t.Errorf("SHA1/MD5 = %v/%v", tm.SHA1, tm.MD5)
	}
	// One cycle at 2 GHz is 500 ps.
	if tm.Compare != 500*units.Picosecond {
		t.Errorf("Compare = %v, want 500ps", tm.Compare)
	}
}

func TestPaperDetectionLatencyIdentity(t *testing.T) {
	// Table I(b): duplicate detection = CRC + read + compare ≈ 91 ns.
	tm := DefaultTiming()
	total := tm.CRC32 + tm.NVMRead + tm.Compare
	if total < 90*units.Nanosecond || total > 92*units.Nanosecond {
		t.Fatalf("dup detection latency = %v, want ~91ns", total)
	}
}

func TestNVMGeometry(t *testing.T) {
	g := DefaultNVM()
	if g.CapacityBytes != 16*units.GB {
		t.Errorf("capacity = %d", g.CapacityBytes)
	}
	if g.Banks() != 64 {
		t.Errorf("banks = %d, want 64", g.Banks())
	}
	if g.Lines() != 16*units.GB/256 {
		t.Errorf("lines = %d", g.Lines())
	}
}

func TestMetaCacheTotalWithinBudget(t *testing.T) {
	// Section IV-E2: 512KB*3 + 128KB = 1664KB < 2MB.
	c := DefaultMetaCache()
	total := c.HashBytes + c.AddrMapBytes + c.InvHashBytes + c.FSMBytes
	if total != 1664*units.KB {
		t.Errorf("four partitions hold %d bytes, want 1664KB", total)
	}
	if total >= 2*units.MB {
		t.Error("metadata cache exceeds the 2MB budget")
	}
}

func TestDefaultDedup(t *testing.T) {
	d := DefaultDedup()
	if d.HistoryBits != 3 {
		t.Errorf("HistoryBits = %d", d.HistoryBits)
	}
	if d.MaxReference != 255 {
		t.Errorf("MaxReference = %d", d.MaxReference)
	}
	if !d.PNAEnabled {
		t.Error("PNA should default on")
	}
}

func TestHierarchyShape(t *testing.T) {
	h := DefaultHierarchy()
	if len(h) != 4 {
		t.Fatalf("levels = %d, want 4", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].SizeBytes <= h[i-1].SizeBytes {
			t.Errorf("level %s not larger than %s", h[i].Name, h[i-1].Name)
		}
		if h[i].Latency <= h[i-1].Latency {
			t.Errorf("level %s not slower than %s", h[i].Name, h[i-1].Name)
		}
	}
}

func TestAESBlocksPerLine(t *testing.T) {
	if AESBlocksPerLine != 16 {
		t.Fatalf("AESBlocksPerLine = %d, want 16", AESBlocksPerLine)
	}
}

func TestSmallNVM(t *testing.T) {
	g := SmallNVM(1 * units.MB)
	if g.Lines() != 4096 {
		t.Fatalf("lines = %d, want 4096", g.Lines())
	}
	if g.Banks() != 16 {
		t.Fatalf("banks = %d", g.Banks())
	}
}

func TestDefaultBundle(t *testing.T) {
	c := Default()
	if c.Timing.NVMRead == 0 || c.NVM.CapacityBytes == 0 || len(c.Hierarchy) == 0 {
		t.Fatal("Default() returned incomplete config")
	}
	if c.Energy.AESBlock != 5900 {
		t.Fatalf("AESBlock energy = %v pJ, want 5900", c.Energy.AESBlock)
	}
}

// TestIsZeroLine sets each byte of a line in turn, plus a length that is
// not a multiple of the eight-byte stride, so both loops are covered.
func TestIsZeroLine(t *testing.T) {
	for _, n := range []int{0, 3, LineSize, LineSize + 5} {
		z := make([]byte, n)
		if !IsZeroLine(z) {
			t.Fatalf("len %d: zero line not detected", n)
		}
		for i := range z {
			z[i] = 1
			if IsZeroLine(z) {
				t.Fatalf("len %d: byte %d set, line detected as zero", n, i)
			}
			z[i] = 0
		}
	}
}

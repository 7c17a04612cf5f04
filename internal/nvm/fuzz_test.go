package nvm

import (
	"bytes"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/fault"
)

// FuzzLoadContents checks the device-state parser against truncated and
// corrupted input, for both the plain DWNV1 layout and the fault-carrying
// DWNV2 layout: it must error — never panic, never allocate from an
// unvalidated length prefix — and accepted state must round-trip.
func FuzzLoadContents(f *testing.F) {
	cfg := config.Default()
	cfg.NVM.Ranks = 1
	cfg.NVM.BanksPerRank = 2
	cfg.NVM.CapacityBytes = 64 * config.LineSize
	newDev := func() *Device { return New(cfg.NVM, cfg.Timing, cfg.Energy) }

	// V1 corpus: a plain device with a few written lines.
	d1 := newDev()
	var line [config.LineSize]byte
	for i := uint64(0); i < 8; i++ {
		for j := range line {
			line[j] = byte(i + 1)
		}
		demandWrite(d1, 0, i, line[:])
	}
	var v1 bytes.Buffer
	if err := d1.SaveContents(&v1); err != nil {
		f.Fatal(err)
	}

	// V2 corpus: the same device with the fault layer armed and driven past
	// wear-out so the remap/ECP/stuck sections are non-empty.
	d2 := newDev()
	d2.EnableFaults(fault.Config{Seed: 3, Endurance: 10, ECPBudget: 1, SpareFrac: 1.0 / 16})
	for w := 0; w < 400; w++ {
		for j := range line {
			line[j] = byte(w)
		}
		d2.WriteChecked(0, uint64(w%4), line[:])
	}
	var v2 bytes.Buffer
	if err := d2.SaveContents(&v2); err != nil {
		f.Fatal(err)
	}
	if !bytes.HasPrefix(v2.Bytes(), []byte("DWNV2\n")) {
		f.Fatal("fault-armed device did not emit V2 state")
	}

	for _, valid := range [][]byte{v1.Bytes(), v2.Bytes()} {
		f.Add(valid)
		for _, cut := range []int{1, 6, 14, len(valid) / 2, len(valid) - 1} {
			if cut < len(valid) {
				f.Add(valid[:cut])
			}
		}
	}
	// Length prefixes claiming enormous counts must be rejected up front.
	huge := append([]byte("DWNV1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	f.Add(huge)
	f.Add([]byte("DWNV2\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		d := newDev()
		if err := d.LoadContents(bytes.NewReader(blob)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.SaveContents(&out); err != nil {
			t.Fatalf("accepted state failed to re-save: %v", err)
		}
		rd := newDev()
		if err := rd.LoadContents(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-saved state rejected: %v", err)
		}
	})
}

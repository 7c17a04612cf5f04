package nvm

import (
	"sort"

	"dewrite/internal/attr"
	"dewrite/internal/fault"
	"dewrite/internal/units"
)

// faultState is the device's fault and graceful-degradation machinery:
// the injector that draws wear-out and transient errors, the remap table into
// the spare region, per-line ECP correction budgets, the stuck-line set, and
// per-bank retirement accounting. Spare lines live at addresses at and above
// geom.Lines(); only the device ever holds those addresses (external callers
// always address the nominal range and are remapped internally).
type faultState struct {
	inj         *fault.Injector
	ecpBudget   int
	retireLimit int

	remap      map[uint64]uint64 // external line → spare line
	ecpUsed    map[uint64]int    // physical line → corrections consumed
	stuck      map[uint64]bool   // external lines that can no longer be written
	spareBase  uint64
	spareLines uint64
	spareNext  uint64

	bankStuck    []int
	banksRetired int

	wornWrites     uint64
	ecpCorrections uint64
	remaps         uint64
	stuckWrites    uint64
	transientFlips uint64
}

func (d *Device) ensureFaults() *faultState {
	if d.faults == nil {
		d.faults = &faultState{
			remap:     make(map[uint64]uint64),
			ecpUsed:   make(map[uint64]int),
			stuck:     make(map[uint64]bool),
			spareBase: d.geom.Lines(),
			bankStuck: make([]int, len(d.banks)),
		}
	}
	return d.faults
}

// EnableFaults arms the fault layer with cfg (policy defaults applied): a
// spare region of SpareFrac·Lines() is provisioned past the nominal address
// range, and subsequent writes consult the injector for wear-out while reads
// draw transient bit errors. A disabled cfg is a no-op. Call before
// LoadContents when restoring a device whose saved state carries fault
// structures, so the injector survives the load.
func (d *Device) EnableFaults(cfg fault.Config) {
	if !cfg.Enabled() {
		return
	}
	cfg = cfg.WithDefaults()
	fs := d.ensureFaults()
	fs.inj = fault.New(cfg)
	fs.ecpBudget = cfg.ECPBudget
	fs.retireLimit = cfg.BankRetireLimit
	fs.spareLines = uint64(cfg.SpareFrac * float64(d.geom.Lines()))
}

// FaultsEnabled reports whether the fault layer is armed (including a device
// restored from fault-carrying state with no live injector).
func (d *Device) FaultsEnabled() bool { return d.faults != nil }

// FaultConfig returns the armed injection config (defaults applied), or the
// zero Config when no injector is armed.
func (d *Device) FaultConfig() fault.Config {
	if d.faults == nil || d.faults.inj == nil {
		return fault.Config{}
	}
	return d.faults.inj.Config()
}

// resolve maps an external line address through the spare-region remap table.
func (d *Device) resolve(lineAddr uint64) uint64 {
	if d.faults != nil {
		if sp, ok := d.faults.remap[lineAddr]; ok {
			return sp
		}
	}
	return lineAddr
}

// verifyPenalty charges the write-verify read that detects stuck-at bits: a
// row-buffer hit, since the row is open right after the write. It is not
// counted as a demand read.
func (d *Device) verifyPenalty(done units.Time) units.Time {
	d.energyPJ += d.energy.RowHitRead
	return done.Add(d.rowHitLat)
}

// writeChecked walks the degradation ladder, attributing each array pulse:
// the first pulse keeps the caller's cause (it carries the intended data, and
// in the common worn-line case the data still lands via ECP), a pulse against
// a known-stuck line is attributed to verify (pure verify-discovered waste),
// and the spare-region rewrite is a remap write. The segment the ladder adds
// past the first pulse is the sampled request's degrade phase.
func (d *Device) writeChecked(now units.Time, lineAddr uint64, data []byte, cause attr.Cause) (units.Time, bool) {
	d.checkWriteArgs(lineAddr, data)
	fs := d.faults
	if fs == nil {
		return d.writeArray(now, lineAddr, data, true, cause), true
	}
	phys := d.resolve(lineAddr)
	if fs.stuck[lineAddr] {
		// A known-stuck line still pulses the array and fails the verify.
		fs.stuckWrites++
		pulsed := d.writeArray(now, phys, data, false, attr.CauseVerify)
		done := d.verifyPenalty(pulsed)
		d.recDegrade(phys, pulsed, done)
		return done, false
	}
	if fs.inj == nil || !fs.inj.WornOut(phys, d.WearOf(phys)+1) {
		return d.writeArray(now, phys, data, true, cause), true
	}
	// The write drove cells past their lifetime: some bits stick, and the
	// verify read catches the mismatch. Walk the degradation ladder.
	fs.wornWrites++
	pulsed := d.writeArray(now, phys, data, false, cause)
	done := d.verifyPenalty(pulsed)
	if fs.ecpUsed[phys] < fs.ecpBudget {
		// An ECP entry patches the stuck bits; the data is stored correctly.
		fs.ecpUsed[phys]++
		fs.ecpCorrections++
		copy(d.storedLine(phys), data)
		d.recDegrade(phys, pulsed, done)
		return done, true
	}
	if fs.spareNext < fs.spareLines {
		// Correction budget exhausted: remap into the spare region and
		// program the data there (one extra array write).
		sp := fs.spareBase + fs.spareNext
		fs.spareNext++
		fs.remap[lineAddr] = sp
		fs.remaps++
		done = d.writeArray(done, sp, data, true, attr.CauseRemap)
		d.recDegrade(phys, pulsed, done)
		return done, true
	}
	// No spares left: the line is permanently stuck.
	fs.stuck[lineAddr] = true
	fs.stuckWrites++
	bank := d.Bank(phys)
	fs.bankStuck[bank]++
	if fs.retireLimit > 0 && fs.bankStuck[bank] == fs.retireLimit {
		fs.banksRetired++
	}
	d.recDegrade(phys, pulsed, done)
	return done, false
}

// recDegrade attributes the ladder's extra latency beyond the first pulse at
// phys to the degrade phase of the open sampled request, if any.
func (d *Device) recDegrade(phys uint64, pulsed, done units.Time) {
	if d.rec.Sampling() && done > pulsed {
		d.rec.BankPhase(attr.PhaseDegrade, d.Bank(phys), pulsed, done)
	}
}

// StuckLines returns the permanently stuck external line addresses in sorted
// order.
func (d *Device) StuckLines() []uint64 {
	if d.faults == nil || len(d.faults.stuck) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(d.faults.stuck))
	for a := range d.faults.stuck {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FaultStats returns the fault and degradation census (zero value when the
// fault layer is not armed).
func (d *Device) FaultStats() fault.DeviceStats {
	fs := d.faults
	if fs == nil {
		return fault.DeviceStats{}
	}
	return fault.DeviceStats{
		WornWrites:        fs.wornWrites,
		ECPCorrections:    fs.ecpCorrections,
		Remaps:            fs.remaps,
		SpareLines:        fs.spareLines,
		SpareUsed:         fs.spareNext,
		StuckLines:        uint64(len(fs.stuck)),
		StuckWrites:       fs.stuckWrites,
		TransientBitFlips: fs.transientFlips,
		BanksRetired:      fs.banksRetired,
	}
}

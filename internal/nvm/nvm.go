// Package nvm models the PCM main-memory device: a set of independent banks
// with asymmetric read/write latencies, a backing store holding real line
// contents, per-line wear counters, and per-operation energy accounting.
//
// The timing model is the first-order one the paper's analysis relies on:
// each bank services requests FCFS, so a request issued at time t to a bank
// busy until time b starts at max(t, b) and occupies the bank for the array
// read or write latency. Writes occupying a bank for 300 ns are what make
// eliminated duplicate writes speed up *other* reads and writes to the same
// bank (Section I) — that queueing effect falls directly out of this model.
package nvm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/dense"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// Device is a banked PCM device. It is not safe for concurrent use; the
// simulator is single-threaded over simulated time.
type Device struct {
	geom      config.NVMGeometry
	readLat   units.Duration
	rowHitLat units.Duration
	writeLat  units.Duration
	energy    config.Energy

	banks    []bankState
	channels []units.Time // busy-until per channel bus (empty = disabled)
	busLat   units.Duration
	// Line contents and wear, indexed by physical line address and grown
	// on first touch up to physLines(): nil contents read as the zero line.
	store  []*[config.LineSize]byte
	wear   []uint64
	rec    *attr.Recorder // nil when attribution is off
	led    *attr.Ledger   // rec's ledger, cached (nil when attribution is off)
	faults *faultState    // nil when the fault layer is not armed

	// Incrementally maintained views of d.wear, so per-epoch sampling never
	// scans the full wear map: cumulative writes per bank, and a wear-value →
	// line-count histogram over the data region (addresses below wearBound;
	// 0 = whole device). The histogram is built lazily on the first
	// SampleEpoch — runs that never sample pay nothing — then kept current
	// by writes; LoadContents invalidates it.
	bankWear  []uint64
	wearHist  map[uint64]uint64
	wearBound uint64
	histReady bool

	// Statistics.
	reads       stats.Counter
	rowHits     stats.Counter
	writes      stats.Counter
	bitsFlipped stats.Counter
	bitsWritten stats.Counter
	readWait    stats.Latency // queueing delay of reads
	writeWait   stats.Latency // queueing delay of writes
	energyPJ    float64

	wearScratch []uint64 // reused by SampleEpoch for DistHist (zero-alloc in steady state)
}

// New returns a device with the given geometry and timing/energy parameters.
func New(geom config.NVMGeometry, timing config.Timing, energy config.Energy) *Device {
	if geom.Banks() <= 0 {
		panic("nvm: geometry has no banks")
	}
	d := &Device{
		geom:      geom,
		readLat:   timing.NVMRead,
		rowHitLat: timing.NVMRowHit,
		writeLat:  timing.NVMWrite,
		busLat:    timing.NVMBus,
		energy:    energy,
		banks:     make([]bankState, geom.Banks()),
		bankWear:  make([]uint64, geom.Banks()),
	}
	if geom.Channels > 0 {
		d.channels = make([]units.Time, geom.Channels)
	}
	return d
}

// busTransfer occupies the channel serving the bank for one line burst and
// returns the transfer completion time. With channel modelling disabled it
// returns done unchanged.
func (d *Device) busTransfer(bank int, done units.Time) units.Time {
	if len(d.channels) == 0 {
		return done
	}
	ch := bank % len(d.channels)
	start := units.Max(done, d.channels[ch])
	end := start.Add(d.busLat)
	d.channels[ch] = end
	return end
}

// bankState is one bank's FCFS service state and open-row tracking.
type bankState struct {
	busyUntil units.Time
	openRow   uint64
	hasOpen   bool
}

// row returns the device row containing lineAddr.
func (d *Device) row(lineAddr uint64) uint64 {
	if d.geom.RowLines > 1 {
		return lineAddr / d.geom.RowLines
	}
	return lineAddr
}

// physLines bounds physical line addresses: the addressable lines plus the
// spare region, which only the fault layer provisions.
func (d *Device) physLines() uint64 {
	if d.faults != nil {
		return d.geom.Lines() + d.faults.spareLines
	}
	return d.geom.Lines()
}

// line returns the stored contents at phys, nil if it was never written.
func (d *Device) line(phys uint64) *[config.LineSize]byte {
	if phys < uint64(len(d.store)) {
		return d.store[phys]
	}
	return nil
}

// Bank returns the bank index servicing lineAddr. Rows (RowLines consecutive
// lines) are interleaved across banks, so lines within one row share a bank
// — spatially local read-after-write traffic contends there.
func (d *Device) Bank(lineAddr uint64) int {
	return config.BankOf(lineAddr, d.geom.RowLines, len(d.banks))
}

func (d *Device) checkAddr(lineAddr uint64) {
	if lineAddr >= d.geom.Lines() {
		panic(fmt.Sprintf("nvm: line address %#x beyond device (%d lines)", lineAddr, d.geom.Lines()))
	}
}

// ReadInto performs a timed read of one line: a fast row-buffer hit when the
// bank's open row matches, otherwise a full array access that opens the row.
// The line contents (a zero line if never written) are copied into dst,
// which must hold LineSize bytes, or discarded when dst is nil — the
// timing-only form metadata fills use, where the functional contents live
// elsewhere. It returns the completion time.
func (d *Device) ReadInto(now units.Time, lineAddr uint64, dst []byte) units.Time {
	return d.readInto(now, lineAddr, true, dst)
}

// ReadBypassInto is a timed read that does not install a new open row on a
// miss (it still benefits from an already-open row). The dedup logic's
// verify reads and the controller's metadata fills use it so that their
// traffic does not evict the row buffers the CPU's demand reads are about to
// hit. dst is as for ReadInto.
func (d *Device) ReadBypassInto(now units.Time, lineAddr uint64, dst []byte) units.Time {
	return d.readInto(now, lineAddr, false, dst)
}

func (d *Device) readInto(now units.Time, lineAddr uint64, open bool, dst []byte) units.Time {
	d.checkAddr(lineAddr)
	lineAddr = d.resolve(lineAddr)
	bank := d.Bank(lineAddr)
	b := &d.banks[bank]
	row := d.row(lineAddr)
	start := units.Max(now, b.busyUntil)
	service := d.readLat
	if b.hasOpen && b.openRow == row {
		service = d.rowHitLat
		d.rowHits.Inc()
		d.energyPJ += d.energy.RowHitRead
	} else {
		d.energyPJ += d.energy.NVMReadLine
		if open {
			b.openRow, b.hasOpen = row, true
		}
	}
	done := start.Add(service)
	b.busyUntil = done
	if d.geom.ClosePage {
		b.hasOpen = false
	}
	if d.rec.Sampling() {
		if start > now {
			d.rec.BankPhase(attr.PhaseQueue, bank, now, start)
		}
		d.rec.BankPhase(attr.PhaseService, bank, start, done)
	}
	done = d.busTransfer(bank, done)

	d.reads.Inc()
	d.readWait.Observe(start.Sub(now))
	if dst != nil {
		if len(dst) != config.LineSize {
			panic(fmt.Sprintf("nvm: read into %d bytes, want %d", len(dst), config.LineSize))
		}
		if line := d.line(lineAddr); line != nil {
			copy(dst, line[:])
		} else {
			clear(dst)
		}
	}
	if d.faults != nil {
		// Draw the transient-error outcome even for timing-only reads so the
		// fault sequence depends only on the (deterministic) access stream.
		if bit, ok := d.faults.inj.ReadFault(lineAddr); ok {
			d.faults.transientFlips++
			if dst != nil {
				dst[bit>>3] ^= 1 << (uint(bit) & 7)
			}
		}
	}
	return done
}

// WriteTagged performs a timed array write of one line and returns the
// completion time. The device records the number of bits that actually
// flipped relative to the previous contents, which the bit-level
// write-reduction experiments consume. With the fault layer armed, a write
// that the degradation ladder cannot place fails silently here — callers
// that can relocate data use WriteChecked instead. cause is the write's
// provenance: demand writes, metadata writebacks, unique-line placements,
// wear-leveling moves and the like tag their array writes so the
// attribution ledger can decompose the device's write total by cause.
// Without an attached recorder the tag is inert.
func (d *Device) WriteTagged(now units.Time, lineAddr uint64, data []byte, cause attr.Cause) units.Time {
	done, _ := d.writeChecked(now, lineAddr, data, cause)
	return done
}

// WriteCheckedTagged is WriteChecked with the provenance cause made explicit;
// see WriteTagged.
func (d *Device) WriteCheckedTagged(now units.Time, lineAddr uint64, data []byte, cause attr.Cause) (units.Time, bool) {
	return d.writeChecked(now, lineAddr, data, cause)
}

func (d *Device) checkWriteArgs(lineAddr uint64, data []byte) {
	if len(data) != config.LineSize {
		panic(fmt.Sprintf("nvm: write of %d bytes, want %d", len(data), config.LineSize))
	}
	d.checkAddr(lineAddr)
}

// writeArray is the timed array write at the physical address phys (which may
// lie in the spare region, past the nominal address range). mutate=false
// models a write whose verify will fail: the bank is occupied, energy is
// spent and the cells are pulsed (wear accrues), but the stored contents do
// not change and no bit-flip statistics are recorded. Every physical line
// write of the device funnels through here, so recording cause into the
// attribution ledger here makes the per-cause counters sum to d.writes by
// construction.
func (d *Device) writeArray(now units.Time, phys uint64, data []byte, mutate bool, cause attr.Cause) units.Time {
	// The line is transferred over the channel before the array programs it.
	bank := d.Bank(phys)
	busDone := d.busTransfer(bank, now)
	b := &d.banks[bank]
	start := units.Max(busDone, b.busyUntil)
	done := start.Add(d.writeLat)
	b.busyUntil = done
	b.openRow, b.hasOpen = d.row(phys), !d.geom.ClosePage
	if d.rec.Sampling() {
		if start > now {
			d.rec.BankPhase(attr.PhaseQueue, bank, now, start)
		}
		d.rec.BankPhase(attr.PhaseService, bank, start, done)
	}

	d.writes.Inc()
	d.writeWait.Observe(start.Sub(units.Min(now, busDone)))
	d.energyPJ += d.energy.NVMWriteLine
	d.led.RecordWrite(cause, bank, d.energy.NVMWriteLine)
	d.wear = dense.Grow(d.wear, phys, d.physLines())
	d.wear[phys]++
	d.bankWear[bank]++
	if d.histReady && (d.wearBound == 0 || phys < d.wearBound) {
		nw := d.wear[phys]
		if nw > 1 {
			if d.wearHist[nw-1] == 1 {
				delete(d.wearHist, nw-1)
			} else {
				d.wearHist[nw-1]--
			}
		}
		d.wearHist[nw]++
	}
	if !mutate {
		return done
	}

	line := d.storedLine(phys)
	d.bitsFlipped.Add(uint64(BitDistance(line, data)))
	d.bitsWritten.Add(config.LineBits)
	copy(line, data)
	return done
}

// Peek returns a copy of the line contents without advancing time or
// statistics, following any spare-region remap. Unwritten lines read as zero.
func (d *Device) Peek(lineAddr uint64) []byte {
	d.checkAddr(lineAddr)
	out := make([]byte, config.LineSize)
	if line := d.line(d.resolve(lineAddr)); line != nil {
		copy(out, line[:])
	}
	return out
}

// Poke sets the line contents without timing, statistics or wear — used for
// warmup and tests only.
func (d *Device) Poke(lineAddr uint64, data []byte) {
	d.checkAddr(lineAddr)
	copy(d.storedLine(d.resolve(lineAddr)), data)
}

// storedLine returns the backing store's line at phys, zeroed on first touch.
func (d *Device) storedLine(phys uint64) []byte {
	d.store = dense.Grow(d.store, phys, d.physLines())
	if d.store[phys] == nil {
		d.store[phys] = new([config.LineSize]byte)
	}
	return d.store[phys][:]
}

// Stats is a snapshot of the device counters. The wait aggregates
// (mean/p99 queueing delay) are whole-run values.
type Stats struct {
	Reads         uint64
	RowHits       uint64
	Writes        uint64
	BitsFlipped   uint64
	BitsWritten   uint64
	EnergyPJ      float64
	MeanReadWait  units.Duration
	MeanWriteWait units.Duration
	P99ReadWait   units.Duration
	P99WriteWait  units.Duration
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		Reads:         d.reads.Value(),
		RowHits:       d.rowHits.Value(),
		Writes:        d.writes.Value(),
		BitsFlipped:   d.bitsFlipped.Value(),
		BitsWritten:   d.bitsWritten.Value(),
		EnergyPJ:      d.energyPJ,
		MeanReadWait:  d.readWait.Mean(),
		MeanWriteWait: d.writeWait.Mean(),
		P99ReadWait:   d.readWait.P99(),
		P99WriteWait:  d.writeWait.P99(),
	}
}

// SetAttr attaches (or, with nil, detaches) the attribution recorder. The
// device records every physical line write's cause into the recorder's
// ledger and, while a sampled request is open, its bank-queue and
// bank-service segments as latency phases on the bank's track. Attribution
// never alters timing.
func (d *Device) SetAttr(rec *attr.Recorder) {
	d.rec = rec
	d.led = rec.Ledger()
}

// SampleEpoch fills the device's share of a timeline epoch: cumulative
// read/write/energy counters, the busy-bank gauge, per-bank cumulative wear
// (whole device — metadata traffic is physical bank load), and the wear
// distribution over touched lines below dataLines (0 samples every line),
// restricting the distribution to the data region so a scheme's metadata
// writebacks don't pollute the data-wear comparison. The schemes call this
// from their own SampleEpoch with their layout's data bound.
//
// Both views are maintained incrementally by writes, so sampling costs
// O(banks + distinct wear values), not O(touched lines); only the first
// call (or a change of dataLines, which never happens within a run) pays
// one full scan to seed the histogram.
func (d *Device) SampleEpoch(e *timeline.Epoch, now units.Time, dataLines uint64) {
	e.DevReads = d.reads.Value()
	e.DevWrites = d.writes.Value()
	e.EnergyPJ = d.energyPJ
	e.NumBanks = len(d.banks)
	busy := 0
	for i := range d.banks {
		if d.banks[i].busyUntil > now {
			busy++
		}
	}
	e.BanksBusy = busy
	e.BankWear = append(e.BankWear[:0], d.bankWear...)
	if !d.histReady || d.wearBound != dataLines {
		d.wearBound = dataLines
		d.wearHist = make(map[uint64]uint64)
		for addr, n := range d.wear {
			if n > 0 && (dataLines == 0 || uint64(addr) < dataLines) {
				d.wearHist[n]++
			}
		}
		d.histReady = true
	}
	e.WearMax, e.WearMean, e.WearGini, e.WearCoV, d.wearScratch = timeline.DistHist(d.wearHist, d.wearScratch)
	if fs := d.faults; fs != nil {
		e.FaultECP = fs.ecpCorrections
		e.FaultRemaps = fs.remaps
		e.FaultStuck = uint64(len(fs.stuck))
		e.FaultFlips = fs.transientFlips
		e.FaultSpareUsed = fs.spareNext
		e.FaultBanksRetired = uint64(fs.banksRetired)
	}
}

// AddEnergy accounts energy spent by logic attached to the device (AES, CRC,
// comparators) so one meter covers the whole memory system.
func (d *Device) AddEnergy(pj float64) { d.energyPJ += pj }

// Wear describes the write-wear state of the device.
type Wear struct {
	TotalWrites  uint64
	TouchedLines uint64
	MaxPerLine   uint64
	MeanPerLine  float64 // over touched lines
}

// WearStats summarizes per-line write counts.
func (d *Device) WearStats() Wear {
	var w Wear
	for _, n := range d.wear {
		if n == 0 {
			continue
		}
		w.TotalWrites += n
		w.TouchedLines++
		if n > w.MaxPerLine {
			w.MaxPerLine = n
		}
	}
	if w.TouchedLines > 0 {
		w.MeanPerLine = float64(w.TotalWrites) / float64(w.TouchedLines)
	}
	return w
}

// WearOf returns the write count of one line.
func (d *Device) WearOf(lineAddr uint64) uint64 {
	if lineAddr < uint64(len(d.wear)) {
		return d.wear[lineAddr]
	}
	return 0
}

// BitDistance returns the number of bit positions at which a and b differ:
// the cells a write of b over a programs. It counts eight bytes at a time.
// b must be at least as long as a.
func BitDistance(a, b []byte) int {
	b = b[:len(a)]
	n, i := 0, 0
	for ; i+8 <= len(a); i += 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Record is the machine-readable form of one epoch: the cumulative counters
// plus the per-epoch deltas downstream plots consume directly. All times are
// integer picoseconds of simulated time.
type Record struct {
	Epoch    uint64 `json:"epoch"`
	EndPs    uint64 `json:"end_ps"`
	Requests uint64 `json:"requests"`

	Writes        uint64  `json:"writes"`
	DupEliminated uint64  `json:"dup_eliminated"`
	ZeroWrites    uint64  `json:"zero_writes"`
	DupRatio      float64 `json:"dup_ratio"`  // per-epoch: eliminated / writes in this epoch
	ZeroRatio     float64 `json:"zero_ratio"` // per-epoch: zero payloads / writes in this epoch

	DevReads  uint64  `json:"dev_reads"`
	DevWrites uint64  `json:"dev_writes"`
	EnergyPJ  float64 `json:"energy_pj"`       // cumulative
	EpochPJ   float64 `json:"epoch_energy_pj"` // this epoch's share

	BanksBusy  int     `json:"banks_busy"`
	Occupancy  float64 `json:"occupancy"`   // BanksBusy / NumBanks
	QueueDepth int     `json:"queue_depth"` // always 0; the field keeps the format's shape

	WearMax  uint64  `json:"wear_max"`
	WearMean float64 `json:"wear_mean"`
	WearGini float64 `json:"wear_gini"`
	WearCoV  float64 `json:"wear_cov"`

	MetaHitRate float64 `json:"meta_hit_rate"` // per-epoch, all partitions

	DedupLive   uint64 `json:"dedup_live"`
	DedupMapped uint64 `json:"dedup_mapped"`

	// Fault/degradation gauges, cumulative (all zero when injection is off).
	FaultECP          uint64 `json:"fault_ecp,omitempty"`
	FaultRemaps       uint64 `json:"fault_remaps,omitempty"`
	FaultStuck        uint64 `json:"fault_stuck,omitempty"`
	FaultFlips        uint64 `json:"fault_flips,omitempty"`
	FaultSpareUsed    uint64 `json:"fault_spare_used,omitempty"`
	FaultBanksRetired uint64 `json:"fault_banks_retired,omitempty"`

	BankWear []uint64 `json:"bank_wear,omitempty"` // cumulative writes per bank
}

// Report is the serializable timeline of one run: the epoch policy and the
// per-epoch records in chronological order. It is the `timeline` block of
// the dewrite/run/v2 report schema.
type Report struct {
	EpochBy string   `json:"epoch_by"`       // always "requests"
	Every   uint64   `json:"every"`          // requests per epoch
	Dropped uint64   `json:"dropped_epochs"` // overwritten by the ring
	Epochs  []Record `json:"epochs"`
}

// Report assembles the exportable timeline from the held epochs, deriving
// the per-epoch delta fields from consecutive cumulative samples.
func (c *Collector) Report() *Report {
	if c == nil {
		return nil
	}
	r := &Report{
		EpochBy: "requests",
		Every:   c.Every(),
		Dropped: c.Dropped(),
		Epochs:  make([]Record, c.Len()),
	}
	var prev *Epoch
	for i := range r.Epochs {
		e := c.at(i)
		r.Epochs[i] = makeRecord(e, prev)
		prev = e
	}
	return r
}

// makeRecord converts one epoch, using prev (nil for the first held epoch)
// for the delta-rate fields.
func makeRecord(e, prev *Epoch) Record {
	rec := Record{
		Epoch:             e.Index,
		EndPs:             uint64(e.EndTime),
		Requests:          e.Requests,
		Writes:            e.Writes,
		DupEliminated:     e.DupEliminated,
		ZeroWrites:        e.ZeroWrites,
		DevReads:          e.DevReads,
		DevWrites:         e.DevWrites,
		EnergyPJ:          e.EnergyPJ,
		BanksBusy:         e.BanksBusy,
		WearMax:           e.WearMax,
		WearMean:          e.WearMean,
		WearGini:          e.WearGini,
		WearCoV:           e.WearCoV,
		DedupLive:         e.DedupLive,
		DedupMapped:       e.DedupMapped,
		FaultECP:          e.FaultECP,
		FaultRemaps:       e.FaultRemaps,
		FaultStuck:        e.FaultStuck,
		FaultFlips:        e.FaultFlips,
		FaultSpareUsed:    e.FaultSpareUsed,
		FaultBanksRetired: e.FaultBanksRetired,
		BankWear:          append([]uint64(nil), e.BankWear...),
	}
	if e.NumBanks > 0 {
		rec.Occupancy = float64(e.BanksBusy) / float64(e.NumBanks)
	}
	var base Epoch
	if prev != nil {
		base = *prev
	}
	rec.EpochPJ = e.EnergyPJ - base.EnergyPJ
	if dw := e.Writes - base.Writes; dw > 0 {
		rec.DupRatio = float64(e.DupEliminated-base.DupEliminated) / float64(dw)
		rec.ZeroRatio = float64(e.ZeroWrites-base.ZeroWrites) / float64(dw)
	}
	if dh, dm := e.MetaHits-base.MetaHits, e.MetaMisses-base.MetaMisses; dh+dm > 0 {
		rec.MetaHitRate = float64(dh) / float64(dh+dm)
	}
	return rec
}

// csvHeader is the fixed column order of WriteCSV. BankWear is excluded —
// the heatmap export carries it.
var csvHeader = []string{
	"epoch", "end_ps", "requests",
	"writes", "dup_eliminated", "zero_writes", "dup_ratio", "zero_ratio",
	"dev_reads", "dev_writes", "energy_pj", "epoch_energy_pj",
	"banks_busy", "occupancy", "queue_depth",
	"wear_max", "wear_mean", "wear_gini", "wear_cov",
	"meta_hit_rate", "dedup_live", "dedup_mapped",
	"fault_ecp", "fault_remaps", "fault_stuck", "fault_flips",
}

// WriteCSV writes one row per epoch in csvHeader order. The encoding is
// deterministic: identical epochs produce byte-identical output.
func (r *Report) WriteCSV(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("timeline: nil report has no CSV to write")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range r.Epochs {
		rec := &r.Epochs[i]
		row := []string{
			u(rec.Epoch), u(rec.EndPs), u(rec.Requests),
			u(rec.Writes), u(rec.DupEliminated), u(rec.ZeroWrites), f(rec.DupRatio), f(rec.ZeroRatio),
			u(rec.DevReads), u(rec.DevWrites), f(rec.EnergyPJ), f(rec.EpochPJ),
			strconv.Itoa(rec.BanksBusy), f(rec.Occupancy), strconv.Itoa(rec.QueueDepth),
			u(rec.WearMax), f(rec.WearMean), f(rec.WearGini), f(rec.WearCoV),
			f(rec.MetaHitRate), u(rec.DedupLive), u(rec.DedupMapped),
			u(rec.FaultECP), u(rec.FaultRemaps), u(rec.FaultStuck), u(rec.FaultFlips),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteWearHeatmapCSV writes the per-bank wear matrix: one row per epoch,
// one column per bank, cells holding the cumulative array writes that bank
// had absorbed when the epoch closed — the input a heatmap plot ingests
// directly (epochs down, banks across).
func (r *Report) WriteWearHeatmapCSV(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("timeline: nil report has no heatmap to write")
	}
	banks := 0
	for i := range r.Epochs {
		if n := len(r.Epochs[i].BankWear); n > banks {
			banks = n
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, 0, banks+2)
	header = append(header, "epoch", "end_ps")
	for b := 0; b < banks; b++ {
		header = append(header, fmt.Sprintf("bank%d", b))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, banks+2)
	for i := range r.Epochs {
		rec := &r.Epochs[i]
		row[0], row[1] = u(rec.Epoch), u(rec.EndPs)
		for b := 0; b < banks; b++ {
			if b < len(rec.BankWear) {
				row[b+2] = u(rec.BankWear[b])
			} else {
				row[b+2] = "0"
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func u(v uint64) string  { return strconv.FormatUint(v, 10) }
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

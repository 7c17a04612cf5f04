package experiments

import (
	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
	"dewrite/internal/workload"
)

// Figure12 reproduces Figure 12: the fraction of whole-line memory writes
// DeWrite eliminates per application, against the duplicates that exist in
// the workload. The gap decomposes into detection misses (PNA skips and
// reference-count saturation) and the extra metadata write-backs.
func Figure12(s *Suite) []*stats.Table {
	t := stats.NewTable("Figure 12: write reduction (%)",
		"app", "existing dup %", "eliminated %", "missed by PNA %", "missed by sat %", "metadata writes %")
	var existing, eliminated []float64
	for _, prof := range s.Opts.Profiles() {
		res := s.Run(sim.SchemeDeWrite, prof)
		writes := float64(res.Gen.Writes)
		if writes == 0 {
			continue
		}
		exist := float64(res.Gen.Duplicates) / writes
		// Device writes = surviving data writes + metadata write-backs.
		elim := 1 - float64(res.Device.Writes)/writes
		ded := s.CoreReport(prof)
		t.AddRow(prof.Name, exist*100, elim*100,
			float64(ded.MissedByPNA)/writes*100,
			float64(ded.MissedBySat)/writes*100,
			float64(ded.MetaNVMWrites)/writes*100)
		existing = append(existing, exist)
		eliminated = append(eliminated, elim)
	}
	t.AddRow("average", mean(existing)*100, mean(eliminated)*100, "", "", "")
	return []*stats.Table{t}
}

// Figure13 reproduces Figure 13: the average fraction of NVM cells flipped
// per line write under the bit-level write-reduction techniques (DCW, FNW,
// DEUCE), alone and stacked under Silent Shredder (zero elision) and under
// DeWrite (full line dedup). Flips are measured on real ciphertexts; an
// eliminated write flips zero cells and still counts in the denominator.
func Figure13(s *Suite) []*stats.Table {
	t := stats.NewTable("Figure 13: average bit flips per write (%)",
		"app", "DCW", "FNW", "DEUCE",
		"Shr+DCW", "Shr+FNW", "Shr+DEUCE",
		"DW+DCW", "DW+FNW", "DW+DEUCE")
	ext := stats.NewTable("Figure 13 (extended): SECRET (related work, Section V)",
		"app", "SECRET", "Shr+SECRET", "DW+SECRET")

	const nModels = 4 // DCW, FNW, DEUCE, SECRET (the last on the extended table)
	type variant int
	const (
		alone variant = iota
		shredder
		dewrite
	)
	sums := make([]float64, 9)
	extSums := make([]float64, 3)
	apps := 0

	// Each profile's model replay is hermetic (own cipher state, own
	// generator), so the per-profile measurements fan out across the
	// cooperative budget; rows and averages are assembled afterwards in
	// profile order.
	profiles := s.Opts.Profiles()
	type measured struct {
		flips  [3][nModels]uint64
		writes uint64
	}
	results := make([]measured, len(profiles))
	Fan(len(profiles), func(pi int) {
		prof := profiles[pi]
		// nModels techniques × 3 variants, each with independent cipher state.
		models := [3][nModels]baseline.BitModel{}
		for v := 0; v < 3; v++ {
			models[v][0] = baseline.NewDCW(prof.WorkingSetLines)
			models[v][1] = baseline.NewFNW(prof.WorkingSetLines)
			models[v][2] = baseline.NewDEUCE(prof.WorkingSetLines)
			models[v][3] = baseline.NewSECRET(prof.WorkingSetLines)
		}
		m := &results[pi]

		// Residency tracking for the DeWrite variant: a write is eliminated
		// when its content is already live somewhere.
		resident := newResidency()
		gen := workload.NewGenerator(prof, s.Opts.Seed)
		for i := 0; i < s.Opts.Requests; i++ {
			req := gen.Next()
			if req.Op != trace.Write {
				continue
			}
			m.writes++
			isZero := config.IsZeroLine(req.Data)
			isDup := resident.isResident(req.Data)
			resident.install(req.Addr, req.Data)

			for mi := 0; mi < nModels; mi++ {
				m.flips[alone][mi] += uint64(models[alone][mi].Write(req.Addr, req.Data))
				if !isZero {
					m.flips[shredder][mi] += uint64(models[shredder][mi].Write(req.Addr, req.Data))
				}
				if !isDup {
					m.flips[dewrite][mi] += uint64(models[dewrite][mi].Write(req.Addr, req.Data))
				}
			}
		}
	})

	for pi, prof := range profiles {
		flips, writes := results[pi].flips, results[pi].writes
		if writes == 0 {
			continue
		}
		denom := float64(writes) * config.LineBits
		row := make([]interface{}, 0, 10)
		row = append(row, prof.Name)
		idx := 0
		for _, v := range []variant{alone, shredder, dewrite} {
			for m := 0; m < 3; m++ {
				frac := float64(flips[v][m]) / denom * 100
				row = append(row, frac)
				sums[idx] += frac
				idx++
			}
		}
		t.AddRow(row...)
		extRow := []interface{}{prof.Name}
		for i, v := range []variant{alone, shredder, dewrite} {
			frac := float64(flips[v][3]) / denom * 100
			extRow = append(extRow, frac)
			extSums[i] += frac
		}
		ext.AddRow(extRow...)
		apps++
	}
	avg := make([]interface{}, 0, 10)
	avg = append(avg, "average")
	for _, v := range sums {
		avg = append(avg, v/float64(apps))
	}
	t.AddRow(avg...)
	extAvg := []interface{}{"average"}
	for _, v := range extSums {
		extAvg = append(extAvg, v/float64(apps))
	}
	ext.AddRow(extAvg...)
	return []*stats.Table{t, ext}
}

// residency tracks which line contents are currently live in memory, keyed
// by content; it is the ideal dedup oracle Figure 13's DeWrite variant uses.
type residency struct {
	byAddr map[uint64]string
	counts map[string]int
}

func newResidency() *residency {
	return &residency{byAddr: make(map[uint64]string), counts: make(map[string]int)}
}

func (r *residency) isResident(data []byte) bool {
	return r.counts[string(data)] > 0
}

func (r *residency) install(addr uint64, data []byte) {
	if old, ok := r.byAddr[addr]; ok {
		r.counts[old]--
		if r.counts[old] == 0 {
			delete(r.counts, old)
		}
	}
	key := string(data)
	r.byAddr[addr] = key
	r.counts[key]++
}

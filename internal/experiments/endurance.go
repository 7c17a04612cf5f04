package experiments

import (
	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
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

	// Each profile's model replay is hermetic (its own models, the suite's
	// immutable prepared stream), so the per-profile measurements fan out
	// across the cooperative budget; rows and averages are assembled
	// afterwards in profile order. A profile's models share encryption
	// engines, which are not safe for concurrent use, so they are built and
	// written on the one goroutine that measures the profile.
	profiles := s.Opts.Profiles()
	type measured struct {
		flips  [3][nModels]uint64
		writes uint64
	}
	results := make([]measured, len(profiles))
	Fan(len(profiles), func(pi int) {
		prof := profiles[pi]
		// One model set per variant. A set's models see the same writes and
		// so share one engine's pads; the variants' counter histories
		// differ, so each has its own.
		var models [3][nModels]baseline.BitModel
		for v := range models {
			models[v] = baseline.NewBitModels(prof.WorkingSetLines)
		}
		m := &results[pi]

		// The DeWrite variant eliminates a write whose content is already
		// live somewhere: the prepared stream's recorded duplicate bit.
		prep := s.Prepared(prof)
		for i := range prep.Requests {
			req := &prep.Requests[i]
			if req.Op != trace.Write {
				continue
			}
			m.writes++
			isZero := config.IsZeroLine(req.Data)
			isDup := prep.Duplicate(i)

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

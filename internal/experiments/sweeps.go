package experiments

import (
	"fmt"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/dedup"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// Figure18 reproduces Figure 18: DeWrite's behaviour in the adversarial
// worst case — a workload with no duplicate lines at all (random values in a
// two-dimensional array, then traversed). DeWrite should track the
// traditional secure NVM within a few percent.
func Figure18(s *Suite) []*stats.Table {
	prof := workload.WorstCase()
	opts := sim.Options{Requests: s.Opts.Requests, Warmup: s.Opts.Warmup, Seed: s.Opts.Seed}
	dw, _ := sim.RunScheme(sim.SchemeDeWrite, prof, s.Config(), opts)
	base, _ := sim.RunScheme(sim.SchemeSecureNVM, prof, s.Config(), opts)

	t := stats.NewTable("Figure 18: worst case (no duplicate writes), normalized to SecureNVM",
		"metric", "DeWrite / SecureNVM")
	t.AddRow("write latency", float64(dw.WriteLatSum)/float64(base.WriteLatSum))
	t.AddRow("read latency", float64(dw.ReadLatSum)/float64(base.ReadLatSum))
	t.AddRow("IPC", sim.RelativeIPC(dw, base))
	t.AddRow("energy", sim.RelativeEnergy(dw, base))
	t.AddRow("device writes", stats.Ratio(dw.Device.Writes, base.Device.Writes))
	return []*stats.Table{t}
}

// Figure21 reproduces Figure 21: metadata-cache hit rate as a function of
// partition size, for each of the four partitions, plus the prefetch
// granularity sweep for the sequential tables. The sweep runs a
// representative application mix and reports the mean hit rate.
func Figure21(s *Suite) []*stats.Table {
	sizesKB := []int{64, 128, 256, 512, 1024, 2048}
	prefetches := []int{16, 64, 256, 1024}

	profiles := s.Opts.Profiles()
	if !s.Opts.Quick && len(profiles) > 6 {
		// The full 20-app sweep across 6 sizes × 4 prefetches is heavy;
		// use the representative span (matches the paper's averaged curves).
		var sel []workload.Profile
		for _, p := range profiles {
			if quickApps[p.Name] {
				sel = append(sel, p)
			}
		}
		profiles = sel
	}

	// The sweep is the suite's single heaviest experiment: every cell below
	// is an independent full-length controller replay, so the whole grid is
	// flattened into (cell × profile) jobs and fanned across the engine's
	// cooperative budget. Each job writes its own slot; the means and the
	// table rows are then assembled in the original sweep order, so the
	// output is byte-identical to the sequential nesting.
	type cell struct {
		cfg  config.Config
		part int
	}
	var cells []cell
	for _, kb := range sizesKB { // Figure 21(a): hash table
		cfg := s.Config()
		cfg.MetaCache.HashBytes = kb * 1024
		cells = append(cells, cell{cfg, 0})
	}
	for _, kb := range sizesKB { // Figure 21(b)+(c): addr map and inverted hash
		for _, pf := range prefetches {
			cfg := s.Config()
			cfg.MetaCache.AddrMapBytes = kb * 1024
			cfg.MetaCache.InvHashBytes = kb * 1024
			cfg.MetaCache.PrefetchEnts = pf
			cells = append(cells, cell{cfg, 1}, cell{cfg, 2})
		}
	}
	fsmSizes := []int{4, 16, 64, 128}
	for _, kb := range fsmSizes { // Figure 21(d): FSM
		cfg := s.Config()
		cfg.MetaCache.FSMBytes = kb * 1024
		cells = append(cells, cell{cfg, 3})
	}

	np := len(profiles)
	rates := make([]float64, len(cells)*np)
	Fan(len(rates), func(j int) {
		c := cells[j/np]
		rates[j] = hitRate(s, profiles[j%np], c.cfg, c.part)
	})
	cellMean := func(i int) float64 {
		return mean(rates[i*np : (i+1)*np])
	}

	next := 0
	hash := stats.NewTable("Figure 21(a): hash-table cache hit rate (%)", "size KB", "hit %")
	for _, kb := range sizesKB {
		hash.AddRow(kb, cellMean(next)*100)
		next++
	}

	addr := stats.NewTable("Figure 21(b): address-mapping cache hit rate (%)",
		append([]string{"size KB"}, prefetchCols(prefetches)...)...)
	inv := stats.NewTable("Figure 21(c): inverted-hash cache hit rate (%)",
		append([]string{"size KB"}, prefetchCols(prefetches)...)...)
	for _, kb := range sizesKB {
		rowA := []interface{}{kb}
		rowI := []interface{}{kb}
		for range prefetches {
			rowA = append(rowA, cellMean(next)*100)
			next++
			rowI = append(rowI, cellMean(next)*100)
			next++
		}
		addr.AddRow(rowA...)
		inv.AddRow(rowI...)
	}

	fsm := stats.NewTable("Figure 21(d): FSM cache hit rate (%)", "size KB", "hit %")
	for _, kb := range fsmSizes {
		fsm.AddRow(kb, cellMean(next)*100)
		next++
	}
	return []*stats.Table{hash, addr, inv, fsm}
}

func prefetchCols(prefetches []int) []string {
	var cols []string
	for _, pf := range prefetches {
		cols = append(cols, fmt.Sprintf("prefetch %d", pf))
	}
	return cols
}

// hitRate runs DeWrite on one profile under cfg and returns the hit rate
// of the selected metadata-cache partition (0 hash, 1 addr, 2 inv, 3 fsm).
// Each call is hermetic — fresh controller, fresh seeded generator — so
// calls for different (cfg, part, profile) cells can run concurrently.
func hitRate(s *Suite, prof workload.Profile, cfg config.Config, part int) float64 {
	ctrl := core.New(core.Options{DataLines: prof.WorkingSetLines, Config: cfg})
	gen := workload.NewGenerator(prof, s.Opts.Seed)
	// The controller keeps no payload past its call, so the generator may
	// recycle its line buffers, and reads land in one reused buffer.
	gen.SetRecycle(true)
	var now units.Time
	var line [config.LineSize]byte
	for i := 0; i < s.Opts.Requests; i++ {
		req := gen.Next()
		if req.Op == trace.Write {
			now = ctrl.Write(now, req.Addr, req.Data)
		} else {
			now = ctrl.ReadInto(now, req.Addr, line[:])
		}
	}
	return ctrl.MetaCaches()[part].HitRate()
}

// TableMeta reproduces the Section IV-E1 storage-overhead analysis: the size
// of each metadata table per data line, the total relative to the data
// capacity, and the comparison against DEUCE's flag+counter overhead.
func TableMeta(s *Suite) []*stats.Table {
	layout := dedup.NewLayout(1 << 22) // 1 GB of data lines for the ratios

	t := stats.NewTable("Metadata storage overhead (Section IV-E1)",
		"table", "bytes per data line", "fraction of capacity %")
	addrBytes := 4.0
	invBytes := 4.0
	hashBytes := 9.0
	fsmBits := 1.0
	lineBytes := 256.0
	t.AddRow("address mapping", addrBytes, addrBytes/lineBytes*100)
	t.AddRow("inverted hash", invBytes, invBytes/lineBytes*100)
	t.AddRow("hash table", hashBytes, hashBytes/lineBytes*100)
	t.AddRow("FSM (1 bit)", fsmBits/8, fsmBits/8/lineBytes*100)
	t.AddRow("counters", 0.0, 0.0) // colocated in null slots (Section III-C)
	total := (addrBytes + invBytes + hashBytes + fsmBits/8) / lineBytes
	t.AddRow("total (analytic)", "", total*100)
	t.AddRow("total (layout, measured)", "", layout.OverheadFraction()*100)

	cmp := stats.NewTable("Comparison with DEUCE",
		"scheme", "overhead %")
	// DEUCE: 1 flag bit per 16-bit word (6.25%) + 28-bit per-line counter.
	deuce := 1.0/16.0 + 28.0/(lineBytes*8)
	cmp.AddRow("DEUCE (flags + counters)", deuce*100)
	cmp.AddRow("DeWrite (counters colocated)", layout.OverheadFraction()*100)
	return []*stats.Table{t, cmp}
}

package experiments

import (
	"fmt"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/dedup"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/workload"
)

// Figure18 reproduces Figure 18: DeWrite's behaviour in the adversarial
// worst case — a workload with no duplicate lines at all (random values in a
// two-dimensional array, then traversed). DeWrite should track the
// traditional secure NVM within a few percent.
func Figure18(s *Suite) []*stats.Table {
	prof := workload.WorstCase()
	opts := s.simOptions()
	opts.Prepared = sim.Prepare(prof, opts)
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
	fsmSizes := []int{4, 16, 64, 128}

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
	np := len(profiles)

	// Figure 21(a): a hash-cache miss steers the PNA decision, and with it
	// the request stream, so every hash-table size is a full controller
	// replay. The one at the suite's own configuration also records the
	// probes the other three partitions receive. Jobs are flattened into
	// (size × profile) slots and fanned across the engine's cooperative
	// budget, so the output is byte-identical at any worker count.
	hashRates := make([]float64, len(sizesKB)*np)
	traces := make([]*core.MetaTrace, np)
	Fan(len(hashRates), func(j int) {
		prof := profiles[j%np]
		cfg := s.Config()
		cfg.MetaCache.HashBytes = sizesKB[j/np] * 1024
		ctrl := core.New(core.Options{DataLines: prof.WorkingSetLines, Config: cfg})
		if cfg.MetaCache == s.Config().MetaCache {
			traces[j%np] = ctrl.RecordMeta()
		}
		replayThrough(ctrl, s.Prepared(prof))
		hashRates[j] = ctrl.MetaCaches()[0].HitRate()
	})

	// Figures 21(b)-(d): these partitions never change which metadata lines
	// the controller touches, so each cell replays only a cache of its
	// geometry over the recorded probes (core.MetaTrace).
	type cell struct {
		mc   config.MetaCacheConfig
		part int
	}
	var cells []cell
	for _, kb := range sizesKB { // Figure 21(b)+(c): addr map and inverted hash
		for _, pf := range prefetches {
			mc := s.Config().MetaCache
			mc.AddrMapBytes = kb * 1024
			mc.InvHashBytes = kb * 1024
			mc.PrefetchEnts = pf
			cells = append(cells, cell{mc, 1}, cell{mc, 2})
		}
	}
	for _, kb := range fsmSizes { // Figure 21(d): FSM
		mc := s.Config().MetaCache
		mc.FSMBytes = kb * 1024
		cells = append(cells, cell{mc, 3})
	}
	rates := make([]float64, len(cells)*np)
	Fan(len(rates), func(j int) {
		c := cells[j/np]
		rates[j] = traces[j%np].Replay(c.part, c.mc).HitRate()
	})
	cellMean := func(rates []float64, i int) float64 {
		return mean(rates[i*np : (i+1)*np])
	}

	hash := stats.NewTable("Figure 21(a): hash-table cache hit rate (%)", "size KB", "hit %")
	for i, kb := range sizesKB {
		hash.AddRow(kb, cellMean(hashRates, i)*100)
	}

	next := 0
	addr := stats.NewTable("Figure 21(b): address-mapping cache hit rate (%)",
		append([]string{"size KB"}, prefetchCols(prefetches)...)...)
	inv := stats.NewTable("Figure 21(c): inverted-hash cache hit rate (%)",
		append([]string{"size KB"}, prefetchCols(prefetches)...)...)
	for _, kb := range sizesKB {
		rowA := []interface{}{kb}
		rowI := []interface{}{kb}
		for range prefetches {
			rowA = append(rowA, cellMean(rates, next)*100)
			next++
			rowI = append(rowI, cellMean(rates, next)*100)
			next++
		}
		addr.AddRow(rowA...)
		inv.AddRow(rowI...)
	}

	fsm := stats.NewTable("Figure 21(d): FSM cache hit rate (%)", "size KB", "hit %")
	for _, kb := range fsmSizes {
		fsm.AddRow(kb, cellMean(rates, next)*100)
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

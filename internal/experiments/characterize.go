package experiments

import (
	"crypto/md5"
	"crypto/sha1"
	"time"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/hashes"
	"dewrite/internal/predict"
	"dewrite/internal/rng"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/trace"
)

// TableI reproduces Table I: (a) the latency and digest size of the hash
// functions, and (b) the duplication-detection latency of traditional
// fingerprint-based deduplication versus DeWrite's read-and-compare scheme.
// Hardware latencies are the paper's constants; a software-throughput column
// from this host is included for reference.
func TableI(s *Suite) []*stats.Table {
	t := s.Config().Timing

	a := stats.NewTable("Table I(a): hash computation latency and sizes",
		"hash", "hw latency", "digest bits", "sw ns/line (this host)")
	line := make([]byte, config.LineSize)
	rng.New(1).Fill(line)
	a.AddRow("SHA-1", t.SHA1.String(), 160, measureNsPerOp(func() { sha1.Sum(line) }))
	a.AddRow("MD5", t.MD5.String(), 128, measureNsPerOp(func() { md5.Sum(line) }))
	a.AddRow("CRC-32", t.CRC32.String(), 32, measureNsPerOp(func() { hashes.CRC32(line) }))

	// Detection latency model (Table I(b)): traditional = cryptographic hash
	// plus fingerprint-store query regardless of outcome; DeWrite = CRC plus
	// verify read plus compare for duplicates, CRC only for non-duplicates.
	q := t.MetaCache
	b := stats.NewTable("Table I(b): duplication detection latency",
		"case", "traditional", "DeWrite")
	trad := t.MD5 + q
	dup := t.CRC32 + q + t.NVMRead + t.Compare
	nondup := t.CRC32 + q
	b.AddRow("duplicate line", ">= "+trad.String(), dup.String())
	b.AddRow("non-duplicate line", ">= "+trad.String(), nondup.String())
	b.AddRow("NVM write (reference)", t.NVMWrite.String(), t.NVMWrite.String())
	return []*stats.Table{a, b}
}

func measureNsPerOp(f func()) float64 {
	const iters = 2000
	start := time.Now() //dewrite:allow determinism host-clock calibration feeds the "this host" columns benchdiff skips
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / iters //dewrite:allow determinism host-clock calibration feeds the "this host" columns benchdiff skips
}

// Figure2 reproduces Figure 2: the fraction of duplicate lines written to
// memory per application, split into zero lines and non-zero duplicates.
// The numbers are ground truth from the content-tracking generator.
func Figure2(s *Suite) []*stats.Table {
	t := stats.NewTable("Figure 2: percentage of duplicate lines",
		"app", "suite", "dup %", "zero %", "nonzero dup %")
	var dups, zeros []float64
	for _, prof := range s.Opts.Profiles() {
		st := s.Prepared(prof).GenFinal
		dup := stats.Ratio(st.Duplicates, st.Writes)
		zero := stats.Ratio(st.ZeroWrites, st.Writes)
		nz := dup - zero
		if nz < 0 {
			nz = 0
		}
		t.AddRow(prof.Name, prof.Suite, dup*100, zero*100, nz*100)
		dups = append(dups, dup)
		zeros = append(zeros, zero)
	}
	t.AddRow("average", "", mean(dups)*100, mean(zeros)*100, (mean(dups)-mean(zeros))*100)
	return []*stats.Table{t}
}

// Figure4 reproduces Figure 4: the accuracy of predicting a write's
// duplication state from the previous write (1-bit window) and from the
// three most recent writes (3-bit window), per application.
func Figure4(s *Suite) []*stats.Table {
	t := stats.NewTable("Figure 4: prediction accuracy (%)",
		"app", "1-bit", "3-bit")
	var acc1s, acc3s []float64
	for _, prof := range s.Opts.Profiles() {
		prep := s.Prepared(prof)
		p1 := predict.New(1)
		p3 := predict.New(3)
		for i := range prep.Requests {
			if prep.Requests[i].Op != trace.Write {
				continue
			}
			isDup := prep.Duplicate(i)
			p1.Observe(isDup)
			p3.Observe(isDup)
		}
		t.AddRow(prof.Name, p1.Accuracy()*100, p3.Accuracy()*100)
		acc1s = append(acc1s, p1.Accuracy())
		acc3s = append(acc3s, p3.Accuracy())
	}
	t.AddRow("average", mean(acc1s)*100, mean(acc3s)*100)
	return []*stats.Table{t}
}

// Figure6 reproduces Figure 6: the probability that a CRC-32 fingerprint
// match is a collision (different data), measured on the DeWrite runs.
func Figure6(s *Suite) []*stats.Table {
	t := stats.NewTable("Figure 6: CRC-32 collision probability (%)",
		"app", "writes", "fingerprint matches", "collisions", "collision %")
	var rates []float64
	for _, prof := range s.Opts.Profiles() {
		res := s.Run(sim.SchemeDeWrite, prof)
		ded := s.CoreReport(prof).Dedup
		matches := ded.Duplicates + ded.Collisions
		rate := stats.Ratio(ded.Collisions, max64(matches, 1))
		t.AddRow(prof.Name, res.Gen.Writes, matches, ded.Collisions, rate*100)
		rates = append(rates, rate)
	}
	t.AddRow("average", "", "", "", mean(rates)*100)
	return []*stats.Table{t}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Figure7 reproduces Figure 7: the distribution of per-location reference
// counts under unbounded counting, showing that references above the 8-bit
// limit are vanishingly rare at scale (our reduced working sets concentrate
// the zero line more than the paper's full runs; the zero line is reported
// separately for that reason).
func Figure7(s *Suite) []*stats.Table {
	t := stats.NewTable("Figure 7: reference count distribution",
		"app", "live lines", "P50", "P99", "P99.9", "max", "% <= 255")
	cfg := s.Config()
	cfg.Dedup.MaxReference = 1 << 30 // observe the natural distribution
	for _, prof := range s.Opts.Profiles() {
		ctrl := core.New(core.Options{DataLines: prof.WorkingSetLines, Config: cfg})
		replayThrough(ctrl, s.Prepared(prof))
		tables := ctrl.Tables()
		tables.ObserveRefs()
		h := tables.RefHistogram()
		t.AddRow(prof.Name, h.Count(),
			h.Percentile(0.5), h.Percentile(0.99), h.Percentile(0.999),
			h.Max(), h.FractionAtMost(255)*100)
	}
	return []*stats.Table{t}
}

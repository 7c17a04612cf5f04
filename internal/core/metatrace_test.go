package core

import (
	"reflect"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// metaRun drives n seeded mcf requests through a fresh controller under mc
// and persist, recording its metadata probes when record is set.
func metaRun(mc config.MetaCacheConfig, persist PersistMode, n int, record bool) (*Controller, *MetaTrace) {
	prof, _ := workload.ByName("mcf")
	prof.WorkingSetLines = 2048
	cfg := config.Default()
	cfg.MetaCache = mc
	c := New(Options{DataLines: prof.WorkingSetLines, Config: cfg, Persist: persist})
	var tr *MetaTrace
	if record {
		tr = c.RecordMeta()
	}
	gen := workload.NewGenerator(prof, 42)
	var now units.Time
	var line [config.LineSize]byte
	for i := 0; i < n; i++ {
		req := gen.Next()
		if req.Op == trace.Write {
			now = c.Write(now, req.Addr, req.Data)
		} else {
			now = c.ReadInto(now, req.Addr, line[:])
		}
	}
	return c, tr
}

// TestMetaTraceMatchesFullReplay checks the address-mapping, inverted-hash
// and FSM statistics of a replayed MetaTrace against full controller runs,
// under both persistence modes (write-through records every update as a
// clean access), for a thrashing 4 KB geometry without prefetch, a wide
// prefetch, and the recording configuration itself. Recording must not
// change the controller's own report.
func TestMetaTraceMatchesFullReplay(t *testing.T) {
	const n = 12000
	base := config.DefaultMetaCache()
	thrash := base
	thrash.AddrMapBytes, thrash.InvHashBytes, thrash.FSMBytes = 4*units.KB, 4*units.KB, 4*units.KB
	thrash.PrefetchEnts = 1
	wide := base
	wide.AddrMapBytes, wide.InvHashBytes, wide.FSMBytes = 64*units.KB, 64*units.KB, 16*units.KB
	wide.PrefetchEnts = 1024
	for _, persist := range []PersistMode{PersistBatteryBacked, PersistWriteThrough} {
		rec, tr := metaRun(base, persist, n, true)
		for _, mc := range []config.MetaCacheConfig{base, thrash, wide} {
			full, _ := metaRun(mc, persist, n, false)
			if mc == base && !reflect.DeepEqual(rec.Report(), full.Report()) {
				t.Fatalf("persist %d: recording changed the controller's report", persist)
			}
			for part := 1; part <= 3; part++ {
				got, want := tr.Replay(part, mc), full.MetaCaches()[part].Stats()
				if got != want {
					t.Errorf("persist %d, %+v, partition %d: replay %+v, full run %+v", persist, mc, part, got, want)
				}
				// The 4 KB partitions hold 16 blocks. One FSM line covers
				// 2048 data lines, so only the two sequential tables can
				// overflow at this working set.
				if mc == thrash && part < 3 && (want.Inserts <= 16 || (persist == PersistBatteryBacked && want.Writebacks == 0)) {
					t.Errorf("persist %d, partition %d: 4 KB geometry did not thrash: %+v", persist, part, want)
				}
			}
		}
	}
}

func TestMetaTraceReplayPanicsOnHashMismatch(t *testing.T) {
	_, tr := metaRun(config.DefaultMetaCache(), PersistBatteryBacked, 100, true)
	for _, tc := range []struct {
		name   string
		part   int
		mutate func(*config.MetaCacheConfig)
		panics bool
	}{
		{"address map resized", 1, func(mc *config.MetaCacheConfig) { mc.AddrMapBytes = 64 * units.KB }, false},
		{"hash resized", 1, func(mc *config.MetaCacheConfig) { mc.HashBytes = 64 * units.KB }, true},
		{"ways", 2, func(mc *config.MetaCacheConfig) { mc.Ways = 4 }, true},
		{"block size", 3, func(mc *config.MetaCacheConfig) { mc.BlockBytes = 128 }, true},
		{"hash partition", 0, func(*config.MetaCacheConfig) {}, true},
	} {
		mc := config.DefaultMetaCache()
		tc.mutate(&mc)
		func() {
			defer func() {
				if got := recover() != nil; got != tc.panics {
					t.Errorf("%s: panicked = %v, want %v", tc.name, got, tc.panics)
				}
			}()
			tr.Replay(tc.part, mc)
		}()
	}
}

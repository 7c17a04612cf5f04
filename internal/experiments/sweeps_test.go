package experiments

import (
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/trace"
	"dewrite/internal/units"
	"dewrite/internal/workload"
)

// hitRate is how Figure 21 once computed every cell, kept as the oracle of
// its cache-only cells: a full DeWrite run over a freshly generated stream
// under cfg. It returns the controller, whose MetaCaches()[part] holds the
// cell's hit rate and the rest of its statistics.
func hitRate(s *Suite, prof workload.Profile, cfg config.Config) *core.Controller {
	ctrl := core.New(core.Options{DataLines: prof.WorkingSetLines, Config: cfg})
	gen := workload.NewGenerator(prof, s.Opts.Seed)
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
	return ctrl
}

// TestFigure21ReplayMatchesFullReplay records each quick app's metadata
// probes the way Figure21 does, then checks every address-mapping,
// inverted-hash and FSM partition's statistics (hits, misses, inserts,
// writebacks) after a cache-only replay against a full controller run of the
// same configuration. The configurations are Figure 21's (b)/(c) grid, with
// the FSM size cycling so each of (d)'s sizes meets the default prefetch,
// plus a thrashing 4 KB geometry without prefetch. Under -short two apps
// check two configurations.
func TestFigure21ReplayMatchesFullReplay(t *testing.T) {
	s := quickSuite()
	base := s.Config().MetaCache
	thrash := base
	thrash.AddrMapBytes, thrash.InvHashBytes, thrash.FSMBytes = 4*units.KB, 4*units.KB, 4*units.KB
	thrash.PrefetchEnts = 1
	configs := []config.MetaCacheConfig{thrash}
	sizesKB := []int{64, 128, 256, 512, 1024, 2048}
	prefetches := []int{16, 64, 256, 1024}
	fsmSizesKB := []int{4, 16, 64, 128}
	for si, kb := range sizesKB {
		for pi, pf := range prefetches {
			mc := base
			mc.AddrMapBytes, mc.InvHashBytes, mc.PrefetchEnts = kb*units.KB, kb*units.KB, pf
			mc.FSMBytes = fsmSizesKB[(si+pi)%len(fsmSizesKB)] * units.KB
			configs = append(configs, mc)
		}
	}
	profiles := s.Opts.Profiles()
	if testing.Short() {
		profiles = []workload.Profile{profiles[0], profiles[len(profiles)-1]}
		configs = configs[:2]
	}
	for _, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			rec := core.New(core.Options{DataLines: prof.WorkingSetLines, Config: s.Config()})
			tr := rec.RecordMeta()
			replayThrough(rec, s.Prepared(prof))
			for _, mc := range configs {
				cfg := s.Config()
				cfg.MetaCache = mc
				full := hitRate(s, prof, cfg).MetaCaches()
				for part := 1; part <= 3; part++ {
					if got, want := tr.Replay(part, mc), full[part].Stats(); got != want {
						t.Errorf("%+v, partition %d: replay %+v, full run %+v", mc, part, got, want)
					}
				}
			}
		})
	}
}

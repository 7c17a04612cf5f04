package cache

import (
	"slices"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// The oracle hierarchy is the cache model as it was before its levels
// became metacache caches: each level kept its own sets, its own LRU tick
// and its own lookup, insert and invalidate. Its replacement and
// write-back logic stays here unchanged, without the statistics accessors
// and the flush, as the reference FuzzHierarchy holds the real hierarchy to.
type oracleLevel struct {
	sets    [][]oracleEntry
	latency units.Duration
	tick    uint64

	hits, misses uint64
}

type oracleEntry struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

func newOracleLevel(cfg config.CacheLevel) *oracleLevel {
	nsets := cfg.SizeBytes / config.LineSize / cfg.Ways
	sets := make([][]oracleEntry, nsets)
	for i := range sets {
		sets[i] = make([]oracleEntry, cfg.Ways)
	}
	return &oracleLevel{sets: sets, latency: cfg.Latency}
}

func (l *oracleLevel) set(addr uint64) []oracleEntry { return l.sets[addr%uint64(len(l.sets))] }

// lookup probes for addr, touching LRU on hit and optionally dirtying.
func (l *oracleLevel) lookup(addr uint64, dirty bool) bool {
	l.tick++
	set := l.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			set[i].used = l.tick
			set[i].dirty = set[i].dirty || dirty
			l.hits++
			return true
		}
	}
	l.misses++
	return false
}

// insert places addr, returning the evicted victim if one was displaced.
func (l *oracleLevel) insert(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	l.tick++
	set := l.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			set[i].used = l.tick
			set[i].dirty = set[i].dirty || dirty
			return 0, false, false
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = oracleEntry{tag: addr, valid: true, dirty: dirty, used: l.tick}
			return 0, false, false
		}
	}
	v := 0
	for i := 1; i < len(set); i++ {
		if set[i].used < set[v].used {
			v = i
		}
	}
	victim, victimDirty = set[v].tag, set[v].dirty
	set[v] = oracleEntry{tag: addr, valid: true, dirty: dirty, used: l.tick}
	return victim, victimDirty, true
}

// invalidate drops addr if present, reporting whether it was dirty.
func (l *oracleLevel) invalidate(addr uint64) (wasDirty, was bool) {
	set := l.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			d := set[i].dirty
			set[i] = oracleEntry{}
			return d, true
		}
	}
	return false, false
}

type oracleHierarchy struct {
	levels []*oracleLevel
}

func newOracleHierarchy(cfgs []config.CacheLevel) *oracleHierarchy {
	h := &oracleHierarchy{}
	for _, c := range cfgs {
		h.levels = append(h.levels, newOracleLevel(c))
	}
	return h
}

func (h *oracleHierarchy) access(addr uint64, store bool) AccessResult {
	res := AccessResult{HitLevel: -1}
	for i, l := range h.levels {
		res.Latency += l.latency
		if l.lookup(addr, store && i == 0) {
			res.HitLevel = i
			for j := i - 1; j >= 0; j-- {
				res.Writebacks = append(res.Writebacks, h.fillLevel(j, addr, store && j == 0)...)
			}
			if store && i != 0 {
				h.levels[0].lookup(addr, true)
			}
			return res
		}
	}
	res.MemFill = true
	for j := len(h.levels) - 1; j >= 0; j-- {
		res.Writebacks = append(res.Writebacks, h.fillLevel(j, addr, store && j == 0)...)
	}
	return res
}

func (h *oracleHierarchy) fillLevel(j int, addr uint64, dirty bool) []uint64 {
	var writebacks []uint64
	victim, victimDirty, evicted := h.levels[j].insert(addr, dirty)
	if !evicted {
		return nil
	}
	for u := 0; u < j; u++ {
		if d, ok := h.levels[u].invalidate(victim); ok && d {
			victimDirty = true
		}
	}
	if !victimDirty {
		return nil
	}
	if j == len(h.levels)-1 {
		return []uint64{victim}
	}
	victim2, victim2Dirty, evicted2 := h.levels[j+1].insert(victim, true)
	if evicted2 && victim2Dirty {
		if j+1 == len(h.levels)-1 {
			writebacks = append(writebacks, victim2)
		} else {
			writebacks = append(writebacks, h.rippleDown(j+2, victim2)...)
		}
	}
	return writebacks
}

func (h *oracleHierarchy) rippleDown(j int, addr uint64) []uint64 {
	if j == len(h.levels) {
		return []uint64{addr}
	}
	victim, victimDirty, evicted := h.levels[j].insert(addr, true)
	if evicted && victimDirty {
		return h.rippleDown(j+1, victim)
	}
	return nil
}

// checkAccess performs one access on the hierarchy and on the oracle and
// fails t unless the results (latency, hit level, fill, write-backs in
// order) and every level's hits and misses agree.
func checkAccess(t *testing.T, step int, h *Hierarchy, o *oracleHierarchy, addr uint64, store bool) {
	t.Helper()
	got, want := h.Access(addr, store), o.access(addr, store)
	if got.Latency != want.Latency || got.HitLevel != want.HitLevel || got.MemFill != want.MemFill ||
		!slices.Equal(got.Writebacks, want.Writebacks) {
		t.Fatalf("access %d (line %d, store %v) = %+v, oracle %+v", step, addr, store, got, want)
	}
	for i, l := range h.Levels() {
		st, ol := l.Stats(), o.levels[i]
		if st.Hits != ol.hits || st.Misses != ol.misses {
			t.Fatalf("access %d: level %d hits/misses %d/%d, oracle %d/%d",
				step, i, st.Hits, st.Misses, ol.hits, ol.misses)
		}
	}
}

// decodeHierarchy reads a hierarchy from data: a byte for the level count
// (1-4), then a byte per level giving its sets (1-8, so 1 is fully
// associative), its ways (1-4, so 1 is direct-mapped) and its latency
// (4-32 cycles). Each further byte is an access: line b>>1, a store when
// b&1 is set. It returns nil levels when data is too short.
func decodeHierarchy(data []byte) (levels []config.CacheLevel, accesses []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	n := 1 + int(data[0]%4)
	if len(data) < 1+n {
		return nil, nil
	}
	cycle := units.NewClock(config.CPUHz).Period()
	for _, b := range data[1 : 1+n] {
		sets, ways := 1+int(b&7), 1+int(b>>3&3)
		levels = append(levels, config.CacheLevel{
			Name:      "L",
			SizeBytes: sets * ways * config.LineSize,
			Ways:      ways,
			Latency:   units.Duration(4*(1+int(b>>5))) * cycle,
		})
	}
	return levels, data[1+n:]
}

// hierarchyInput encodes levels and an access stream for decodeHierarchy.
func hierarchyInput(levels []byte, accesses ...byte) []byte {
	return append(append([]byte{byte(len(levels) - 1)}, levels...), accesses...)
}

func loadLine(line byte) byte  { return line << 1 }
func storeLine(line byte) byte { return line<<1 | 1 }

// FuzzHierarchy holds the hierarchy of metacache levels to the oracle
// hierarchy on small, conflict-heavy geometries. The seeds replay the
// tinyHierarchy tests' conflict patterns (2 sets × 2 ways over 4 sets × 4
// ways) and add 1-way, fully associative and four-level stacks.
func FuzzHierarchy(f *testing.F) {
	tiny := []byte{1 | 1<<3, 3 | 3<<3 | 2<<5} // tinyHierarchy's L1 and L2
	f.Add(hierarchyInput(tiny, loadLine(1), loadLine(1), loadLine(3), loadLine(5), loadLine(1)))
	f.Add(hierarchyInput(tiny, loadLine(7), loadLine(9), loadLine(11), loadLine(7), loadLine(7)))
	var stores, pressure, sweep []byte
	for i := byte(0); i < 64; i++ {
		stores = append(stores, storeLine(2*i))
		sweep = append(sweep, loadLine(2*i), loadLine(2*i+1))
	}
	pressure = append(pressure, storeLine(10), loadLine(12), loadLine(14), loadLine(16))
	for i := byte(0); i < 44; i++ {
		pressure = append(pressure, loadLine(40+2*i))
	}
	f.Add(hierarchyInput(tiny, stores...))
	f.Add(hierarchyInput(tiny, pressure...))
	f.Add(hierarchyInput(tiny, sweep...))
	f.Add(hierarchyInput([]byte{0, 0}, append(stores, pressure...)...))               // two 1-way, 1-set levels
	f.Add(hierarchyInput([]byte{3 << 3}, pressure...))                                // one fully associative level
	f.Add(hierarchyInput([]byte{1, 1 | 1<<3, 3 | 2<<3, 7 | 3<<3}, stores...))         // four levels
	f.Add(hierarchyInput([]byte{7 | 3<<3, 1 | 1<<3, 0}, append(sweep, stores...)...)) // larger above smaller
	f.Fuzz(func(t *testing.T, data []byte) {
		levels, accesses := decodeHierarchy(data)
		if levels == nil {
			return
		}
		h, o := NewHierarchy(levels), newOracleHierarchy(levels)
		for i, b := range accesses {
			checkAccess(t, i, h, o, uint64(b>>1), b&1 == 1)
		}
	})
}

// TestDefaultHierarchyMatchesOracle runs a random stream through Table II's
// four levels, whose sets the fuzzer's small geometries never reach.
func TestDefaultHierarchyMatchesOracle(t *testing.T) {
	h, o := NewHierarchy(config.DefaultHierarchy()), newOracleHierarchy(config.DefaultHierarchy())
	src := rng.New(22)
	for i := 0; i < 50000; i++ {
		checkAccess(t, i, h, o, src.Uint64n(200000), src.Bool(0.3))
	}
}

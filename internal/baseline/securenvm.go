// Package baseline implements every comparison system the paper evaluates
// DeWrite against:
//
//   - SecureNVM: the traditional secure NVM — counter-mode encryption with an
//     on-chip counter cache, no deduplication (the normalization baseline of
//     Figures 14, 16, 17 and 19);
//   - Shredder: Silent Shredder-style zero-line elimination layered on
//     SecureNVM (Figures 2 and 13);
//   - the bit-level write-reduction models DCW, FNW and DEUCE, which operate
//     on real ciphertexts and report how many cells actually flip per write
//     (Figure 13).
package baseline

import (
	"fmt"

	"dewrite/internal/attr"
	"dewrite/internal/cme"
	"dewrite/internal/config"
	"dewrite/internal/fault"
	"dewrite/internal/metacache"
	"dewrite/internal/nvm"
	"dewrite/internal/stats"
	"dewrite/internal/timeline"
	"dewrite/internal/units"
)

// SecureNVM is the traditional secure NVM system: every line is encrypted
// with counter-mode AES and written; reads overlap OTP generation with the
// array access. Not safe for concurrent use.
type SecureNVM struct {
	cfg       config.Config
	dev       *nvm.Device
	enc       *cme.Engine
	ctrs      *cme.CounterStore
	ctrCache  *metacache.Cache
	dataLines uint64
	ctrBase   uint64 // first NVM line of the counter table
	pfCtr     int
	rec       *attr.Recorder // nil when attribution is off

	writes        stats.Counter
	reads         stats.Counter
	aesLineOps    stats.Counter
	aesMetaOps    stats.Counter
	metaNVMReads  stats.Counter
	metaNVMWrites stats.Counter
	failedWrites  stats.Counter // writes lost entirely (line poisoned)
	poisonedReads stats.Counter // reads answered from a known-lost line
	writeLat      stats.Latency
	readLat       stats.Latency

	// Fault/crash state (see crash.go): the injection config for rebuilding
	// after a crash, the persisted-counter shadow, and the data-lost set.
	faultCfg fault.Config
	track    bool
	pCtr     map[uint64]uint64
	poisoned map[uint64]bool

	// Per-controller scratch lines keep the request hot path allocation-free
	// (the controller is single-threaded).
	lineScratch [config.LineSize]byte
	ctScratch   [config.LineSize]byte
}

// zeroLine is the shared all-zero payload for metadata write-backs and
// shredded reads; consumers never mutate request payloads.
var zeroLine [config.LineSize]byte

// CounterEntriesPerLine is how many per-line counters pack into one 256 B
// counter-table line (4 B per counter, generously covering the paper's
// 28-bit counters).
const CounterEntriesPerLine = config.LineSize / 4

var baselineKey = []byte("securenvm-key..!")

// NewSecureNVM returns a baseline controller over a fresh device with
// dataLines logical lines plus the counter-table region. The full metadata
// cache budget (2 MB in the paper) is devoted to counters.
func NewSecureNVM(dataLines uint64, cfg config.Config) *SecureNVM {
	if dataLines == 0 {
		panic("baseline: zero dataLines")
	}
	if cfg.Timing == (config.Timing{}) {
		cfg = config.Default()
	}
	ctrLines := (dataLines + CounterEntriesPerLine - 1) / CounterEntriesPerLine
	total := dataLines + ctrLines
	// Inherit the configured organization; only the capacity is resized.
	geom := cfg.NVM
	geom.CapacityBytes = total * config.LineSize
	cacheBytes := cfg.MetaCache.CounterCacheBytes
	if cacheBytes == 0 {
		cacheBytes = 2 * units.MB
	}
	return &SecureNVM{
		cfg:       cfg,
		dev:       nvm.New(geom, cfg.Timing, cfg.Energy),
		enc:       cme.MustNewEngine(baselineKey),
		ctrs:      cme.NewCounterStore(dataLines),
		ctrCache:  metacache.New("counter", cacheBytes, cfg.MetaCache.BlockBytes, cfg.MetaCache.Ways),
		dataLines: dataLines,
		ctrBase:   dataLines,
		pfCtr:     metacache.PrefetchLines(cfg.MetaCache.PrefetchEnts, CounterEntriesPerLine),
	}
}

// SetAttr attaches (or, with nil, detaches) the attribution recorder,
// cascading it to the device and the crypto engine.
func (s *SecureNVM) SetAttr(rec *attr.Recorder) {
	s.rec = rec
	s.dev.SetAttr(rec)
	s.enc.SetAttr(rec)
}

// SampleEpoch implements timeline.Sampler: scheme write count, counter-cache
// hit/miss totals, and device state with the wear distribution bounded to the
// data region (the counter table wears separately).
func (s *SecureNVM) SampleEpoch(e *timeline.Epoch, now units.Time) {
	e.Writes = s.writes.Value()
	s.ctrCache.SampleEpoch(e, now)
	s.dev.SampleEpoch(e, now, s.dataLines)
}

// Device exposes the underlying device for statistics.
func (s *SecureNVM) Device() *nvm.Device { return s.dev }

func (s *SecureNVM) counterLine(logical uint64) uint64 {
	return s.ctrBase + logical/CounterEntriesPerLine
}

func (s *SecureNVM) checkAddr(logical uint64) {
	if logical >= s.dataLines {
		panic(fmt.Sprintf("baseline: address %#x beyond %d lines", logical, s.dataLines))
	}
}

// counterAccess models fetching/updating a per-line counter through the
// counter cache, mirroring core's metadata-access model.
func (s *SecureNVM) counterAccess(now units.Time, logical uint64, write bool) units.Time {
	line := s.counterLine(logical)
	if s.ctrCache.Lookup(line, write) {
		done := now.Add(s.cfg.Timing.MetaCache)
		s.ctrCache.Attr(s.rec, true, now, done)
		return done
	}
	// Timing-only read: the functional counters live in the CounterStore.
	done := s.dev.ReadBypassInto(now, line, nil)
	s.metaNVMReads.Inc()
	done = done.Add(s.cfg.Timing.AESLine)
	s.aesMetaOps.Inc()
	s.dev.AddEnergy(s.cfg.Energy.AESBlock * config.AESBlocksPerLine)
	limit := s.ctrBase + (s.dataLines+CounterEntriesPerLine-1)/CounterEntriesPerLine
	s.ctrCache.Fill(line, write, s.pfCtr, limit, func(i int, block uint64, ev metacache.Eviction, evicted bool) {
		if i > 0 {
			// Prefetches stream behind the demand read, off its critical path.
			s.dev.ReadInto(done, block, nil)
			s.metaNVMReads.Inc()
		}
		if evicted && ev.Dirty {
			s.dev.WriteTagged(done, ev.Block, zeroLine[:], attr.CauseMetadata)
			s.metaNVMWrites.Inc()
			s.aesMetaOps.Inc()
			s.dev.AddEnergy(s.cfg.Energy.AESBlock * config.AESBlocksPerLine)
			if s.track {
				s.persistCounterLine(ev.Block)
			}
		}
	})
	filled := done.Add(s.cfg.Timing.MetaCache)
	s.ctrCache.Attr(s.rec, false, now, filled)
	return filled
}

// Write encrypts the line under (address, counter) and writes it, returning
// the completion time. The OTP for a write cannot be precomputed (the
// counter must be bumped first), so AES sits on the write critical path —
// exactly the cost structure DeWrite's elimination avoids.
func (s *SecureNVM) Write(now units.Time, logical uint64, data []byte) units.Time {
	if len(data) != config.LineSize {
		panic(fmt.Sprintf("baseline: line of %d bytes", len(data)))
	}
	s.checkAddr(logical)
	s.writes.Inc()

	ctrDone := s.counterAccess(now, logical, true)
	counter := s.ctrs.Bump(logical)
	encDone := ctrDone.Add(s.cfg.Timing.AESLine)
	s.rec.Phase(attr.PhaseEncrypt, ctrDone, encDone)
	s.aesLineOps.Inc()
	s.dev.AddEnergy(s.cfg.Energy.AESBlock * config.AESBlocksPerLine)

	ct := s.ctScratch[:]
	s.enc.EncryptLine(ct, data, logical, counter)
	done, ok := s.dev.WriteChecked(encDone, logical, ct)
	if ok {
		if len(s.poisoned) != 0 {
			delete(s.poisoned, logical)
		}
	} else {
		// No remapping layer in the baseline: once the device's own ECP and
		// spare region are exhausted the line's data is simply lost.
		s.failedWrites.Inc()
		if s.poisoned == nil {
			s.poisoned = make(map[uint64]bool)
		}
		s.poisoned[logical] = true
	}
	s.writeLat.Observe(done.Sub(now))
	return done
}

// Read fetches and decrypts one line, overlapping OTP generation with the
// array read (the point of counter-mode encryption, Section II-B). The
// returned slice is freshly allocated and owned by the caller; hot loops use
// ReadInto instead.
func (s *SecureNVM) Read(now units.Time, logical uint64) ([]byte, units.Time) {
	out := make([]byte, config.LineSize)
	done := s.ReadInto(now, logical, out)
	return out, done
}

// ReadInto is Read without the per-call allocation: the plaintext is
// decrypted into dst, which must hold one line.
func (s *SecureNVM) ReadInto(now units.Time, logical uint64, dst []byte) units.Time {
	if len(dst) != config.LineSize {
		panic(fmt.Sprintf("baseline: read into %d bytes", len(dst)))
	}
	s.checkAddr(logical)
	s.reads.Inc()

	ctrDone := s.counterAccess(now, logical, false)
	if len(s.poisoned) != 0 && s.poisoned[logical] {
		// Data known lost: zeros, counted; ReadVerified surfaces the error.
		s.poisonedReads.Inc()
		clear(dst)
		s.readLat.Observe(ctrDone.Sub(now))
		return ctrDone
	}
	ct := s.lineScratch[:]
	readDone := s.dev.ReadInto(ctrDone, logical, ct)
	otpDone := ctrDone.Add(s.cfg.Timing.AESLine)
	s.rec.Phase(attr.PhaseEncrypt, ctrDone, otpDone)
	done := units.Max(readDone, otpDone).Add(s.cfg.Timing.XOR)
	s.aesLineOps.Inc()
	s.dev.AddEnergy(s.cfg.Energy.AESBlock * config.AESBlocksPerLine)

	s.enc.DecryptLine(dst, ct, logical, s.ctrs.Get(logical))
	s.readLat.Observe(done.Sub(now))
	return done
}

// Report is a snapshot of the baseline's statistics.
type Report struct {
	Writes        uint64
	Reads         uint64
	AESLineOps    uint64
	AESMetaOps    uint64
	MetaNVMReads  uint64
	MetaNVMWrites uint64
	FailedWrites  uint64
	PoisonedReads uint64
	PoisonedLines int
	MeanWriteLat  units.Duration
	MeanReadLat   units.Duration
	P50WriteLat   units.Duration
	P95WriteLat   units.Duration
	P99WriteLat   units.Duration
	P50ReadLat    units.Duration
	P95ReadLat    units.Duration
	P99ReadLat    units.Duration
	WriteLatSum   units.Duration
	ReadLatSum    units.Duration
	Device        nvm.Stats
}

// Report returns the current statistics snapshot.
func (s *SecureNVM) Report() Report {
	return Report{
		Writes:        s.writes.Value(),
		Reads:         s.reads.Value(),
		AESLineOps:    s.aesLineOps.Value(),
		AESMetaOps:    s.aesMetaOps.Value(),
		MetaNVMReads:  s.metaNVMReads.Value(),
		MetaNVMWrites: s.metaNVMWrites.Value(),
		FailedWrites:  s.failedWrites.Value(),
		PoisonedReads: s.poisonedReads.Value(),
		PoisonedLines: len(s.poisoned),
		MeanWriteLat:  s.writeLat.Mean(),
		MeanReadLat:   s.readLat.Mean(),
		P50WriteLat:   s.writeLat.P50(),
		P95WriteLat:   s.writeLat.P95(),
		P99WriteLat:   s.writeLat.P99(),
		P50ReadLat:    s.readLat.P50(),
		P95ReadLat:    s.readLat.P95(),
		P99ReadLat:    s.readLat.P99(),
		WriteLatSum:   s.writeLat.Sum(),
		ReadLatSum:    s.readLat.Sum(),
		Device:        s.dev.Stats(),
	}
}

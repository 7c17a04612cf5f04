// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section IV). Each runner regenerates the corresponding
// rows/series — write reductions, speedups, IPC, energy, prediction
// accuracy, collision rates, cache sweeps — over the 20 synthetic
// application profiles that stand in for SPEC CPU2006 and PARSEC 2.1.
//
// Scale note: the paper simulates 4 billion instructions per application on
// a 16 GB device with 64 banks. This reproduction runs tens of thousands of
// memory requests per application over working sets of 2^14–2^16 lines, and
// scales the device to 16 banks so the lines-per-bank ratio (and therefore
// the queueing behaviour) is preserved. Relative shapes, not absolute
// numbers, are the reproduction target.
package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/sim"
	"dewrite/internal/stats"
	"dewrite/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Requests per (application, scheme) run.
	Requests int
	// Warmup requests excluded from measurements (cache/metadata warmup,
	// mirroring the paper's 10 M-instruction warmup).
	Warmup int
	// Seed for the workload generators.
	Seed uint64
	// Quick restricts the application set to a small representative subset
	// so benchmarks stay fast.
	Quick bool
}

// DefaultOptions returns the full-suite configuration.
func DefaultOptions() Options {
	return Options{Requests: 30000, Warmup: 6000, Seed: 42}
}

// QuickOptions returns the reduced configuration used by testing.B benches.
func QuickOptions() Options {
	return Options{Requests: 15000, Warmup: 5000, Seed: 42, Quick: true}
}

// quickApps is the representative subset used when Quick is set: it spans
// the duplication range (min, low, mid, high, max) and both suites.
var quickApps = map[string]bool{
	"vips": true, "bzip2": true, "mcf": true, "lbm": true, "blackscholes": true,
}

// Profiles returns the application set for the options.
func (o Options) Profiles() []workload.Profile {
	all := workload.Profiles()
	if !o.Quick {
		return all
	}
	var out []workload.Profile
	for _, p := range all {
		if quickApps[p.Name] {
			// Shrink large working sets so the short quick runs reach steady
			// state after warmup.
			if p.WorkingSetLines > 1<<13 {
				p.WorkingSetLines = 1 << 13
			}
			out = append(out, p)
		}
	}
	return out
}

// Config returns the experiment machine configuration: the paper's timing
// and energy constants over a bank count scaled to the reduced working sets
// (see the package comment).
func (o Options) Config() config.Config {
	cfg := config.Default()
	// Scale the bank count with the reduced working sets so per-bank
	// pressure (and therefore queueing) resembles the full-size system.
	cfg.NVM.Ranks = 2
	cfg.NVM.BanksPerRank = 4
	return cfg
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // e.g. "fig14"
	Title string // paper caption, abbreviated
	Run   func(*Suite) []*stats.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: hash functions and detection latency", Run: TableI},
		{ID: "fig2", Title: "Figure 2: percentage of duplicate lines", Run: Figure2},
		{ID: "fig4", Title: "Figure 4: duplication-state prediction accuracy", Run: Figure4},
		{ID: "fig6", Title: "Figure 6: CRC-32 collision probability", Run: Figure6},
		{ID: "fig7", Title: "Figure 7: reference-count distribution", Run: Figure7},
		{ID: "fig12", Title: "Figure 12: write reduction", Run: Figure12},
		{ID: "fig13", Title: "Figure 13: bit flips per write", Run: Figure13},
		{ID: "fig14", Title: "Figure 14: write speedup", Run: Figure14},
		{ID: "fig15", Title: "Figure 15: write latency of direct/parallel/DeWrite", Run: Figure15},
		{ID: "fig16", Title: "Figure 16: read speedup", Run: Figure16},
		{ID: "fig17", Title: "Figure 17: relative IPC", Run: Figure17},
		{ID: "fig18", Title: "Figure 18: worst-case performance", Run: Figure18},
		{ID: "fig19", Title: "Figure 19: energy consumption", Run: Figure19},
		{ID: "fig20", Title: "Figure 20: energy of direct/DeWrite/parallel", Run: Figure20},
		{ID: "fig21", Title: "Figure 21: metadata cache hit rate sweeps", Run: Figure21},
		{ID: "tablemeta", Title: "Section IV-E1: metadata storage overhead", Run: TableMeta},
		{ID: "abl-pna", Title: "Ablation: prediction-based NVM access on/off", Run: AblationPNA},
		{ID: "abl-history", Title: "Ablation: predictor history window sweep", Run: AblationHistory},
		{ID: "abl-refwidth", Title: "Ablation: reference-count width sweep", Run: AblationRefWidth},
		{ID: "abl-modes", Title: "Ablation: direct/parallel/DeWrite head to head", Run: AblationModes},
		{ID: "abl-hashwidth", Title: "Ablation: fingerprint width sweep", Run: AblationHashWidth},
		{ID: "abl-wear", Title: "Ablation: dedup vs Start-Gap wear leveling", Run: AblationWearLevel},
		{ID: "abl-persist", Title: "Ablation: metadata persistence schemes", Run: AblationPersist},
		{ID: "abl-hierarchy", Title: "Ablation: CPU cache hierarchy interposed", Run: AblationHierarchy},
		{ID: "abl-cachescale", Title: "Ablation: metadata-cache coverage vs the Figure 15 gap", Run: AblationCacheScale},
		{ID: "abl-openloop", Title: "Ablation: open-loop (trace-driven) speedups", Run: AblationOpenLoop},
		{ID: "abl-bus", Title: "Ablation: shared channel bus", Run: AblationBus},
		{ID: "abl-phases", Title: "Ablation: phased workload behaviour", Run: AblationPhases},
		{ID: "abl-integrity", Title: "Ablation: Merkle integrity tree (extension)", Run: AblationIntegrity},
		{ID: "abl-seeds", Title: "Ablation: seed sensitivity", Run: AblationSeeds},
		{ID: "abl-rowpolicy", Title: "Ablation: open vs closed row-buffer policy", Run: AblationRowPolicy},
		{ID: "faultcampaign", Title: "Fault campaign: crash recovery, wear-out, transient errors", Run: FaultCampaign},
		{ID: "tail", Title: "Tail latency: p50/p95/p99 per scheme", Run: TailLatency},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Suite memoizes (application, scheme) runs and each application's default
// DeWrite replay, so the figures that share underlying simulations (14–17,
// 19, 20) and the ablations' default cells run each simulation once. It
// also materializes each application's request stream once (sim.Prepare) and
// replays it across every scheme, so the five schemes consume an identical,
// immutable trace instead of regenerating it.
//
// The suite is safe for concurrent use: each memoized value is guarded by a
// per-key sync.Once, so concurrent experiments computing disjoint keys
// proceed in parallel while callers of an in-flight key wait for the single
// computation. Every simulation itself is hermetic — fresh memory, a fixed
// seed, the shared immutable trace — so a value is identical no matter which
// goroutine computes it.
type Suite struct {
	Opts Options
	cfg  config.Config

	mu      sync.Mutex
	runs    map[string]*memo[sim.Result]
	reports map[string]*memo[replay]
	preps   map[string]*memo[*sim.Prepared]
}

// memo is a lazily computed, compute-once cell.
type memo[T any] struct {
	once sync.Once
	v    T
}

// cell returns (creating if needed) the memo cell for key under mu.
func memoCell[T any](mu *sync.Mutex, m map[string]*memo[T], key string) *memo[T] {
	mu.Lock()
	defer mu.Unlock()
	e := m[key]
	if e == nil {
		e = new(memo[T])
		m[key] = e
	}
	return e
}

// profileKey is the memoization key of a profile: its full value, not just
// its name, because ablations run modified copies of named profiles. %#v
// rather than %v: Profile implements Stringer, and its display form omits
// fields (working-set size, phases) that change the generated stream.
func profileKey(prof workload.Profile) string {
	return fmt.Sprintf("%#v", prof)
}

// NewSuite returns a suite for the options.
func NewSuite(opts Options) *Suite {
	if opts.Requests <= 0 {
		opts = DefaultOptions()
	}
	return &Suite{
		Opts:    opts,
		cfg:     opts.Config(),
		runs:    make(map[string]*memo[sim.Result]),
		reports: make(map[string]*memo[replay]),
		preps:   make(map[string]*memo[*sim.Prepared]),
	}
}

// simOptions returns the per-run simulation options for the suite's scale.
func (s *Suite) simOptions() sim.Options {
	return sim.Options{
		Requests: s.Opts.Requests,
		Warmup:   s.Opts.Warmup,
		Seed:     s.Opts.Seed,
	}
}

// Prepared returns the profile's memoized request stream, materializing it on
// first use.
func (s *Suite) Prepared(prof workload.Profile) *sim.Prepared {
	e := memoCell(&s.mu, s.preps, profileKey(prof))
	e.once.Do(func() {
		e.v = sim.Prepare(prof, s.simOptions())
	})
	return e.v
}

// replay is what the suite keeps of a DeWrite controller's replay of a
// profile's prepared stream: the controller's report and what experiments
// read beside it.
type replay struct {
	report core.Report
	// hashHitRate is the hash-table partition's hit rate (Figure 21(a)).
	hashHitRate float64
	// meta holds the other three partitions' probes (Figure 21(b)-(d)). Only
	// the default replay records them.
	meta *core.MetaTrace
	// flushed is what FlushMetadata returned after the stream: the dirty
	// metadata lines written back at shutdown (abl-persist). The default
	// replay always flushes; another only when asked to.
	flushed int
}

// coreOptions returns the options of the profile's default DeWrite
// controller: the suite's configuration, battery-backed metadata, no
// integrity tree.
func (s *Suite) coreOptions(prof workload.Profile) core.Options {
	return core.Options{DataLines: prof.WorkingSetLines, Config: s.cfg}
}

// defaultReplay returns the profile's memoized default DeWrite replay, the
// suite's one pass of a controller built from coreOptions. Every cell whose
// controller options equal those by value reads it (replayWith).
func (s *Suite) defaultReplay(prof workload.Profile) replay {
	e := memoCell(&s.mu, s.reports, profileKey(prof))
	e.once.Do(func() {
		ctrl := core.New(s.coreOptions(prof))
		meta := ctrl.RecordMeta()
		e.v = s.replayOn(ctrl, prof, true)
		e.v.meta = meta
	})
	return e.v
}

// CoreReport returns the controller report of the profile's default DeWrite
// replay (controller-internal statistics sim.Result does not carry).
func (s *Suite) CoreReport(prof workload.Profile) core.Report {
	return s.defaultReplay(prof).report
}

// replayWith returns the DeWrite replay of the profile's prepared stream
// through a controller built from opts. When opts equals coreOptions by
// value, that is the memoized default replay; otherwise the replay is the
// caller's own: it records no probes, and flushes the metadata caches only
// when flush is set.
func (s *Suite) replayWith(prof workload.Profile, opts core.Options, flush bool) replay {
	if reflect.DeepEqual(opts, s.coreOptions(prof)) {
		return s.defaultReplay(prof)
	}
	return s.replayOn(core.New(opts), prof, flush)
}

// replayOn replays the profile's prepared stream through ctrl and returns
// its report and hash-partition hit rate, flushing the metadata caches after
// the stream when flush is set.
func (s *Suite) replayOn(ctrl *core.Controller, prof workload.Profile, flush bool) replay {
	now := replayThrough(ctrl, s.Prepared(prof))
	r := replay{report: ctrl.Report(), hashHitRate: ctrl.MetaCaches()[0].HitRate()}
	if flush {
		r.flushed = ctrl.FlushMetadata(now)
	}
	return r
}

// Config returns the suite's machine configuration.
func (s *Suite) Config() config.Config { return s.cfg }

// Simulations reports how many full-length simulation passes the suite has
// memoized so far (scheme runs, controller replays, and trace preparations).
// Callers use it to normalize host-side cost metrics per simulated request.
func (s *Suite) Simulations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs) + len(s.reports) + len(s.preps)
}

// Run returns the memoized result of running scheme on the profile, replaying
// the profile's shared prepared stream. The result keeps no final memory: no
// experiment reads one, and the suite lives as long as its experiments.
func (s *Suite) Run(scheme sim.Scheme, prof workload.Profile) sim.Result {
	e := memoCell(&s.mu, s.runs, runKey(scheme, prof))
	e.once.Do(func() {
		opts := s.simOptions()
		opts.Prepared = s.Prepared(prof)
		res, _ := sim.RunScheme(scheme, prof, s.cfg, opts)
		e.v = res.WithoutMemory()
	})
	return e.v
}

// runKey is the memoization key of a scheme run on a profile.
func runKey(scheme sim.Scheme, prof workload.Profile) string {
	return profileKey(prof) + "\x00" + scheme.String()
}

// isSuiteRun reports whether a run under cfg and opts has Suite.Run's inputs:
// cfg and opts equal the suite's by value, opts.Prepared aside (a prepared
// stream is a function of the profile and the other options).
func (s *Suite) isSuiteRun(cfg config.Config, opts sim.Options) bool {
	opts.Prepared = nil
	return opts == s.simOptions() && reflect.DeepEqual(cfg, s.cfg)
}

// run returns the result of running scheme on the profile under cfg and
// opts: Suite.Run's memoized result when isSuiteRun, otherwise a run of the
// caller's own over opts.Prepared.
func (s *Suite) run(scheme sim.Scheme, prof workload.Profile, cfg config.Config, opts sim.Options) sim.Result {
	if s.isSuiteRun(cfg, opts) {
		return s.Run(scheme, prof)
	}
	res, _ := sim.RunScheme(scheme, prof, cfg, opts)
	return res
}

// perfSchemes is the full scheme grid the performance figures draw from.
var perfSchemes = []sim.Scheme{
	sim.SchemeDeWrite, sim.SchemeDirect, sim.SchemeParallel,
	sim.SchemeSecureNVM, sim.SchemeShredder,
}

// Prefill computes the (application × scheme) simulation grid the
// performance figures share — plus each application's prepared stream and
// default DeWrite replay — across workers goroutines. It is an optional
// warm-up: experiments run correctly without it, computing entries on demand.
func (s *Suite) Prefill(workers int) {
	profs := s.Opts.Profiles()
	// Streams first: every grid run replays one, so materializing them
	// up front (one worker per application) avoids the grid workers
	// serializing on the per-profile once.
	ForEach(workers, len(profs), func(i int) {
		s.Prepared(profs[i])
	})
	n := len(perfSchemes) + 1 // + the controller report
	ForEach(workers, len(profs)*n, func(j int) {
		prof := profs[j/n]
		if k := j % n; k < len(perfSchemes) {
			s.Run(perfSchemes[k], prof)
		} else {
			s.CoreReport(prof)
		}
	})
}

// geoMean returns the geometric mean of vs, 0 if empty or any v <= 0.
func geoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		prod *= v
	}
	return math.Pow(prod, 1/float64(len(vs)))
}

// mean returns the arithmetic mean of vs, 0 if empty.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dewrite/internal/stats"
)

// This file is the deterministic parallel experiment engine. The evaluation
// is embarrassingly parallel — every table is an independent sweep over
// (application, scheme) pairs — and determinism survives parallelism because
// of how the work is structured:
//
//   - every simulation is hermetic: fresh memory, its own seeded RNG (or the
//     shared immutable prepared stream), no host-time dependence;
//   - shared state between workers is confined to the Suite's per-key
//     sync.Once memo cells, so a memoized value is identical no matter which
//     worker computes it;
//   - results are collected into slots indexed by the input order, so output
//     ordering is canonical regardless of completion order.
//
// RunAll therefore produces byte-identical tables at any worker count (the
// one documented exception is TableI, which measures host wall-clock hash
// throughput and is nondeterministic even sequentially).

// Workers normalizes a worker-count request: n < 1 (e.g. an unset flag)
// selects GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Progress observes the parallel engine for live monitoring: ForEach reports
// every job start and completion. Implementations must be safe for
// concurrent calls from worker goroutines and must be fast — they sit
// between jobs, not inside them.
type Progress interface {
	JobStarted(index, total, workers int)
	JobDone(index, total, workers int)
}

// progressFn holds the active Progress observer (nil = none). It is process-
// global because ForEach call sites (experiments, CLI grids) don't thread a
// context; the monitor endpoint installs one for the process lifetime.
var progressFn atomic.Pointer[Progress]

// SetProgress installs (or with nil clears) the engine's progress observer
// and returns the previous one.
func SetProgress(p Progress) Progress {
	var prev *Progress
	if p == nil {
		prev = progressFn.Swap(nil)
	} else {
		prev = progressFn.Swap(&p)
	}
	if prev == nil {
		return nil
	}
	return *prev
}

// ForEach runs job(i) for every i in [0, n) across min(workers, n)
// goroutines, returning when all jobs are done. Jobs are handed out in index
// order; job must be safe to call concurrently with itself.
func ForEach(workers, n int, job func(int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	run := job
	if pp := progressFn.Load(); pp != nil {
		p := *pp
		run = func(i int) {
			p.JobStarted(i, n, workers)
			defer p.JobDone(i, n, workers)
			job(i)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// fanPool is the cooperative token pool for nested fan-out. Heavy
// experiments split their inner sweeps with Fan; each extra helper
// goroutine costs one token, acquired without blocking, so nesting can
// never deadlock and the process-wide goroutine count stays bounded by
// the engine's worker budget. A nil pool (workers <= 1) disables helpers
// entirely and Fan degenerates to an in-order loop.
var fanPool atomic.Pointer[chan struct{}]

// SetFanWorkers sizes the nested fan-out budget: Fan may run up to
// workers-1 extra goroutines across the whole process, on top of the
// callers themselves. RunAll installs the budget automatically; call this
// directly only when driving experiments without RunAll (e.g. a lone
// Figure21 from a CLI). workers follows the Workers normalization; a
// budget of one (or fewer) clears the pool.
func SetFanWorkers(workers int) {
	workers = Workers(workers)
	if workers <= 1 {
		fanPool.Store(nil)
		return
	}
	ch := make(chan struct{}, workers-1)
	for i := 0; i < workers-1; i++ {
		ch <- struct{}{}
	}
	fanPool.Store(&ch)
}

// Fan runs job(i) for every i in [0, n), borrowing helper goroutines from
// the cooperative budget installed by SetFanWorkers. The caller's own
// goroutine always participates, so Fan completes even when the pool is
// exhausted (it just runs sequentially). Results must be collected into
// slots indexed by i — never appended — so the output is identical at any
// budget, including zero; that is the same slot discipline ForEach-based
// experiments already follow.
//
// Unlike ForEach, Fan is meant for use inside experiments: it is safe to
// nest (token acquisition never blocks) and does not report Progress.
func Fan(n int, job func(int)) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var tokens chan struct{}
	if p := fanPool.Load(); p != nil {
		tokens = *p
	}
	extra := 0
	if tokens != nil {
		for extra < n-1 {
			select {
			case <-tokens:
				extra++
			default:
				goto acquired
			}
		}
	}
acquired:
	if extra == 0 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	// Pre-filled and closed, so the caller and every helper just drain it:
	// the caller keeps working instead of merely dispatching.
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			defer func() { tokens <- struct{}{} }()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := range next {
		job(i)
	}
	wg.Wait()
}

// Outcome is one experiment's product: its tables and how long it took.
// Under concurrency Wall includes time spent sharing cores with other
// experiments, so it overstates exclusive cost.
type Outcome struct {
	Experiment Experiment
	Tables     []*stats.Table
	Wall       time.Duration
}

// RunAll executes the experiments over the shared suite with the given
// worker count and returns one Outcome per experiment, in input order. A
// memoized pass (a scheme run, a default DeWrite replay, a prepared stream)
// runs once, on whichever worker asks first, and every cell whose inputs
// equal a memoized pass's by value reads it, as the ablations' default
// cells do (Suite.run, Suite.replayWith). A pass of other inputs runs
// outside the memo, once per cell that asks for it. The returned tables are
// byte-identical to a workers=1 run (except TableI, see above).
func RunAll(s *Suite, exps []Experiment, workers int) []Outcome {
	SetFanWorkers(workers)
	out := make([]Outcome, len(exps))
	ForEach(workers, len(exps), func(i int) {
		start := time.Now() //dewrite:allow determinism Outcome.Wall is observational host time, gated with TimeThreshold
		tables := exps[i].Run(s)
		out[i] = Outcome{Experiment: exps[i], Tables: tables, Wall: time.Since(start)} //dewrite:allow determinism Outcome.Wall is observational host time, gated with TimeThreshold
	})
	return out
}

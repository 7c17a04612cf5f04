// Package monitor serves a run's live state over HTTP while a simulation or
// benchmark suite executes: named float gauges published three ways —
// Prometheus text exposition at /metrics, the process expvar tree at
// /debug/vars, and a load-balancer-style /healthz — plus a Progress adapter
// feeding per-worker state from the parallel experiment engine, and Go's
// pprof profiles of the process itself under /debug/pprof/.
//
// Gauges are atomic float64 cells, so simulation goroutines set them
// wait-free; HTTP readers see whatever was last stored. The monitor is
// observational only: nothing in the simulator reads a gauge back.
package monitor

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dewrite/internal/attr"
	"dewrite/internal/experiments"
	"dewrite/internal/timeline"
)

// Registry is a set of named metrics: float gauges, monotonic counters and
// cumulative histograms. The zero value is not usable; call NewRegistry.
// Safe for concurrent use, and nil-safe: every method on the nil registry is
// a no-op, so components can hold an optional registry unconditionally.
type Registry struct {
	mu         sync.RWMutex
	gauges     map[string]*uint64 // name → atomic float64 bits
	counters   map[string]*Counter
	hists      map[string]*Histogram
	histBounds map[string][]uint64 // family name → shared bucket bounds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges:     make(map[string]*uint64),
		counters:   make(map[string]*Counter),
		hists:      make(map[string]*Histogram),
		histBounds: make(map[string][]uint64),
	}
}

func (r *Registry) cell(name string) *uint64 {
	r.mu.RLock()
	c := r.gauges[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.gauges[name]; c == nil {
		c = new(uint64)
		r.gauges[name] = c
	}
	return c
}

// Set stores the gauge's current value.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	atomic.StoreUint64(r.cell(name), floatBits(v))
}

// Add atomically adds delta to the gauge.
func (r *Registry) Add(name string, delta float64) {
	if r == nil {
		return
	}
	c := r.cell(name)
	for {
		old := atomic.LoadUint64(c)
		if atomic.CompareAndSwapUint64(c, old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Get returns the gauge's current value (0 for an unknown name).
func (r *Registry) Get(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.gauges[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return bitsFloat(atomic.LoadUint64(c))
}

// Snapshot returns every metric's current value keyed by registry name:
// gauges and counters directly, histograms as derived <name>_count and
// <name>_sum entries (labeled series keep their label block on the suffixed
// base name). It is the flat view the STATS wire op and /debug/vars serve.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.gauges)+len(r.counters)+2*len(r.hists))
	for name, c := range r.gauges {
		out[name] = bitsFloat(atomic.LoadUint64(c))
	}
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, h := range r.hists {
		base, labels := splitKey(name)
		suffix := ""
		if labels != "" {
			suffix = "\x00" + labels
		}
		out[base+"_count"+suffix] = float64(h.Count())
		out[base+"_sum"+suffix] = float64(h.Sum())
	}
	return out
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Label is one Prometheus name="value" pair attached to a labeled gauge.
type Label struct {
	Key, Value string
}

// SetLabeled stores a gauge carrying Prometheus labels. The series is keyed
// by the metric name plus its rendered label set; label values are escaped
// per the text exposition format at key-construction time, so hostile values
// (run names are user input) cannot corrupt the scrape output.
func (r *Registry) SetLabeled(name string, labels []Label, v float64) {
	if r == nil {
		return
	}
	r.Set(labeledKey(name, labels), v)
}

// labeledKey renders name\x00{key="value",...} with keys sanitized to the
// metric charset and values escaped for the exposition format. The NUL
// separator marks the key as carrying a pre-escaped label block — a plain Set
// name can never smuggle one in, since sanitize folds NUL to an underscore.
func labeledKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte(0)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitize(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value for the Prometheus text exposition
// format: backslash, double quote and newline are the three runes the format
// reserves inside quoted label values.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// PublishAttribution mirrors a finished run's attribution block into labeled
// gauges: attr_cause_writes and attr_cause_energy_pj per provenance cause,
// plus the sampling and ledger totals. The run label is the caller's run
// identifier, typically "app/scheme".
func (r *Registry) PublishAttribution(run string, rep *attr.Report) {
	if r == nil || rep == nil {
		return
	}
	runOnly := []Label{{"run", run}}
	r.SetLabeled("attr_sampled_requests", runOnly, float64(rep.SampledWrites+rep.SampledReads))
	r.SetLabeled("attr_total_line_writes", runOnly, float64(rep.TotalLineWrites))
	r.SetLabeled("attr_energy_pj", runOnly, rep.EnergyPJ)
	for _, c := range rep.Causes {
		labels := []Label{{"run", run}, {"cause", c.Cause}}
		r.SetLabeled("attr_cause_writes", labels, float64(c.Writes))
		r.SetLabeled("attr_cause_energy_pj", labels, c.EnergyPJ)
	}
}

// PublishEpoch mirrors a just-closed timeline epoch into prefixed gauges —
// the glue between a per-run Collector's OnEpoch hook and the live endpoint.
// Safe to call from any run goroutine; distinct runs use distinct prefixes.
func (r *Registry) PublishEpoch(prefix string, e *timeline.Epoch) {
	if r == nil {
		return
	}
	r.Set(prefix+".epoch", float64(e.Index))
	r.Set(prefix+".requests", float64(e.Requests))
	r.Set(prefix+".writes", float64(e.Writes))
	r.Set(prefix+".dup_eliminated", float64(e.DupEliminated))
	r.Set(prefix+".zero_writes", float64(e.ZeroWrites))
	r.Set(prefix+".dev_writes", float64(e.DevWrites))
	r.Set(prefix+".energy_pj", e.EnergyPJ)
	r.Set(prefix+".banks_busy", float64(e.BanksBusy))
	r.Set(prefix+".wear_max", float64(e.WearMax))
	r.Set(prefix+".wear_gini", e.WearGini)
	r.Set(prefix+".fault_ecp", float64(e.FaultECP))
	r.Set(prefix+".fault_remaps", float64(e.FaultRemaps))
	r.Set(prefix+".fault_stuck", float64(e.FaultStuck))
	r.Set(prefix+".fault_flips", float64(e.FaultFlips))
	r.Set(prefix+".fault_spare_used", float64(e.FaultSpareUsed))
	r.Set(prefix+".fault_banks_retired", float64(e.FaultBanksRetired))
}

// Progress returns an engine observer that maintains the suite-level gauges
// engine.jobs_total, engine.jobs_done, engine.jobs_active and engine.workers,
// plus the throughput estimates engine.jobs_per_sec and engine.eta_seconds
// (wall-clock jobs per second since the first job started, and the
// remaining-job estimate at that rate). Install it with
// experiments.SetProgress.
func (r *Registry) Progress() experiments.Progress {
	if r == nil {
		return nil
	}
	return &progressGauges{reg: r}
}

type progressGauges struct {
	reg   *Registry
	done  atomic.Int64
	start atomic.Int64 // wall nanos of the first JobStarted; 0 until then
}

func (p *progressGauges) JobStarted(_, total, workers int) {
	if p == nil {
		return
	}
	p.start.CompareAndSwap(0, time.Now().UnixNano())
	p.reg.Set("engine.jobs_total", float64(total))
	p.reg.Set("engine.workers", float64(workers))
	p.reg.Add("engine.jobs_active", 1)
}

func (p *progressGauges) JobDone(_, total, workers int) {
	if p == nil {
		return
	}
	p.reg.Add("engine.jobs_active", -1)
	done := p.done.Add(1)
	p.reg.Set("engine.jobs_done", float64(done))
	// The ETA gauges are observational wall-clock estimates for a human (or
	// dewrite-top) watching a long suite; they never feed back into the run.
	if start := p.start.Load(); start != 0 {
		if elapsed := float64(time.Now().UnixNano()-start) / 1e9; elapsed > 0 {
			rate := float64(done) / elapsed
			p.reg.Set("engine.jobs_per_sec", rate)
			if rate > 0 && total >= int(done) {
				p.reg.Set("engine.eta_seconds", float64(total-int(done))/rate)
			}
		}
	}
}

// expvar integration: the package-level "dewrite" var reads whichever
// registry is current, so tests and sequential CLI runs can each install a
// fresh registry without tripping expvar's duplicate-name panic.
var (
	expvarOnce sync.Once
	current    atomic.Pointer[Registry]
)

func publishExpvar(r *Registry) {
	current.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("dewrite", expvar.Func(func() any {
			if reg := current.Load(); reg != nil {
				return reg.Snapshot()
			}
			return map[string]float64{}
		}))
	})
}

// Server is a live monitoring endpoint bound to one registry.
type Server struct {
	reg  *Registry
	http *http.Server
	ln   net.Listener
}

// ServeOpts customizes the ops endpoint beyond the registry itself.
type ServeOpts struct {
	// Ready reports whether the service behind the registry is ready for
	// traffic; /readyz answers 503 until it returns true. nil means always
	// ready, which keeps /readyz useful for the batch CLIs (dewrite-sim
	// -monitor) where liveness and readiness coincide.
	Ready func() bool
	// Slow, when non-nil, is mounted at /debug/slow — the serving daemon's
	// slowest-recent-requests ring.
	Slow http.Handler
}

// Serve starts the monitoring endpoint on addr (e.g. ":8080"; ":0" picks a
// free port — see Addr). The server runs until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	return ServeWith(addr, reg, ServeOpts{})
}

// ServeWith is Serve with service-specific options: a readiness probe and a
// slow-request handler.
func ServeWith(addr string, reg *Registry, opts ServeOpts) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	publishExpvar(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil && !opts.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if opts.Slow != nil {
		mux.Handle("/debug/slow", opts.Slow)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, reg)
	})
	s := &Server{reg: reg, http: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln: ln}
	//dewrite:allow goroutinelifecycle http.Serve returns when Close closes the listener; the shutdown path lives in net/http, one package deeper than the analyzer can see
	go s.http.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the endpoint.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.http.Close()
}

// writePrometheus renders every metric in text exposition format, names
// sanitized to the Prometheus charset and prefixed dewrite_: gauges first,
// then counters, then histograms, each family under one TYPE line. SetLabeled
// keys carry a pre-escaped {label="value"} suffix that is emitted as-is;
// plain Set names have every rune — braces included — sanitized away, so
// only escaped label blocks ever reach the output.
func writePrometheus(w io.Writer, reg *Registry) {
	if reg == nil {
		return
	}
	reg.mu.RLock()
	gauges := make(map[string]float64, len(reg.gauges))
	for name, c := range reg.gauges {
		gauges[name] = bitsFloat(atomic.LoadUint64(c))
	}
	counters := make(map[string]*Counter, len(reg.counters))
	for name, c := range reg.counters {
		counters[name] = c
	}
	hists := make(map[string]*Histogram, len(reg.hists))
	for name, h := range reg.hists {
		hists[name] = h
	}
	reg.mu.RUnlock()

	names := make([]string, 0, len(gauges))
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	typed := make(map[string]bool, len(names))
	for _, name := range names {
		base, labels := splitKey(name)
		metric := "dewrite_" + sanitize(base)
		if !typed[metric] {
			typed[metric] = true
			fmt.Fprintf(w, "# TYPE %s gauge\n", metric)
		}
		fmt.Fprintf(w, "%s%s %g\n", metric, labels, gauges[name])
	}
	writeCounters(w, counters)
	writeHistograms(w, hists)
}

// sanitize maps a gauge name onto the Prometheus metric charset
// [a-zA-Z0-9_]; every other rune becomes an underscore.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

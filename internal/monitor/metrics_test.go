package monitor

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dewrite/internal/stats"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("second Counter call returned a different instance")
	}
	labeled := r.Counter("reqs", Label{"op", "put"})
	if labeled == c {
		t.Fatal("labeled series aliased the unlabeled one")
	}

	// Nil counter and nil registry absorb everything.
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if nilC.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var nilR *Registry
	if nilR.Counter("x") != nil {
		t.Fatal("nil registry returned a live counter")
	}
}

func TestGaugeHandleBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(5.5)
	if got := g.Value(); got != 5.5 {
		t.Fatalf("gauge value %g, want 5.5", got)
	}
	// The handle and the name-based surface share one cell: a handle store is
	// visible to Snapshot, and a name-based Set is visible through the handle.
	if snap := r.Snapshot(); snap["depth"] != 5.5 {
		t.Fatalf("snapshot saw %v, want depth=5.5", snap)
	}
	r.Set("depth", 9)
	if got := g.Value(); got != 9 {
		t.Fatalf("handle missed name-based Set: %g", got)
	}

	// A labeled handle is its own series under the family.
	labeled := r.Gauge("depth", Label{"shard", "0"})
	labeled.Set(4)
	if g.Value() != 9 || labeled.Value() != 4 {
		t.Fatalf("labeled gauge aliased the unlabeled one: %g / %g", g.Value(), labeled.Value())
	}
	var buf bytes.Buffer
	writePrometheus(&buf, r)
	text := buf.String()
	for _, want := range []string{"dewrite_depth 9", `dewrite_depth{shard="0"} 4`} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	// Nil gauge and nil registry absorb everything.
	var nilG *Gauge
	nilG.Set(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var nilR *Registry
	if nilR.Gauge("x") != nil {
		t.Fatal("nil registry returned a live gauge")
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []uint64{10, 100, 1000})

	// le is inclusive: 10 lands in the first bucket, 11 in the second.
	for _, v := range []uint64{1, 10, 11, 100, 101, 1000, 1001} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count %d, want 7", got)
	}
	if got := h.Sum(); got != 1+10+11+100+101+1000+1001 {
		t.Fatalf("sum %d", got)
	}
	cum, total := h.cumulative()
	if want := []uint64{2, 4, 6}; !slicesEq(cum, want) {
		t.Fatalf("cumulative %v, want %v", cum, want)
	}
	if total != 7 {
		t.Fatalf("+Inf total %d, want 7", total)
	}

	// Nil histogram and nil registry absorb everything.
	var nilH *Histogram
	nilH.Observe(5)
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Bounds() != nil {
		t.Fatal("nil histogram holds state")
	}
	var nilR *Registry
	if nilR.Histogram("x", []uint64{1}) != nil {
		t.Fatal("nil registry returned a live histogram")
	}
}

func TestHistogramFamilyBoundsFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("lat", []uint64{1, 2, 3}, Label{"op", "put"})
	b := r.Histogram("lat", []uint64{10, 20}, Label{"op", "get"})
	if !slicesEq(a.Bounds(), b.Bounds()) {
		t.Fatalf("family series disagree on bounds: %v vs %v", a.Bounds(), b.Bounds())
	}
	if !slicesEq(b.Bounds(), []uint64{1, 2, 3}) {
		t.Fatalf("second registration overrode family bounds: %v", b.Bounds())
	}
}

func slicesEq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parseExposition is a minimal Prometheus text-format reader used to pin the
// scrape output: TYPE declarations plus every sample line, with the le label
// (if any) extracted un-escaped since bounds are always plain integers.
type sample struct {
	metric string // full sample name including _bucket/_sum/_count suffix
	labels string // raw label block, "" when absent
	le     string // value of the le label, "" when absent
	value  float64
}

func parseExposition(t *testing.T, text string) (types map[string]string, samples []sample) {
	t.Helper()
	types = make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		s := sample{metric: line[:sp], value: v}
		if i := strings.IndexByte(s.metric, '{'); i >= 0 {
			s.labels = s.metric[i:]
			s.metric = s.metric[:i]
			if !strings.HasSuffix(s.labels, "}") {
				t.Fatalf("line %d: unterminated label block in %q", ln+1, line)
			}
			for _, kv := range strings.Split(s.labels[1:len(s.labels)-1], ",") {
				if le, ok := strings.CutPrefix(kv, `le="`); ok {
					s.le = strings.TrimSuffix(le, `"`)
				}
			}
		}
		samples = append(samples, s)
	}
	return types, samples
}

// checkHistogramFamily validates one (family, label-set) series group: bucket
// counts must be cumulative (monotone non-decreasing as le increases), the
// le="+Inf" sample must equal _count, and _sum must be present. It returns
// the series' +Inf count.
func checkHistogramFamily(t *testing.T, family, labels string, samples []sample) float64 {
	t.Helper()
	strip := func(block string) string {
		// Remove the le pair so buckets group with their _sum/_count.
		var kept []string
		if block == "" {
			return ""
		}
		for _, kv := range strings.Split(block[1:len(block)-1], ",") {
			if !strings.HasPrefix(kv, `le="`) {
				kept = append(kept, kv)
			}
		}
		if len(kept) == 0 {
			return ""
		}
		return "{" + strings.Join(kept, ",") + "}"
	}

	type bucket struct {
		le    float64
		inf   bool
		count float64
	}
	var buckets []bucket
	sum, count := math.NaN(), math.NaN()
	for _, s := range samples {
		switch s.metric {
		case family + "_bucket":
			if strip(s.labels) != labels {
				continue
			}
			b := bucket{count: s.value}
			if s.le == "+Inf" {
				b.inf = true
			} else {
				le, err := strconv.ParseFloat(s.le, 64)
				if err != nil {
					t.Fatalf("%s%s: bad le %q", family, labels, s.le)
				}
				b.le = le
			}
			buckets = append(buckets, b)
		case family + "_sum":
			if s.labels == labels {
				sum = s.value
			}
		case family + "_count":
			if s.labels == labels {
				count = s.value
			}
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("%s%s: no bucket samples", family, labels)
	}
	if !buckets[len(buckets)-1].inf {
		t.Fatalf("%s%s: last bucket is not le=\"+Inf\"", family, labels)
	}
	if math.IsNaN(sum) || math.IsNaN(count) {
		t.Fatalf("%s%s: missing _sum or _count", family, labels)
	}
	prev := -1.0
	prevLe := -1.0
	for i, b := range buckets {
		if !b.inf {
			if b.le <= prevLe {
				t.Fatalf("%s%s: bucket %d le %g not ascending", family, labels, i, b.le)
			}
			prevLe = b.le
		}
		if b.count < prev {
			t.Fatalf("%s%s: bucket %d count %g below previous %g — not cumulative", family, labels, i, b.count, prev)
		}
		prev = b.count
	}
	if inf := buckets[len(buckets)-1].count; inf != count {
		t.Fatalf("%s%s: le=\"+Inf\" %g != _count %g", family, labels, inf, count)
	}
	return count
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Set("ready", 1)
	r.Counter("reqs_total", Label{"op", "put"}).Add(3)
	r.Counter("reqs_total", Label{"op", "get"}).Inc()
	h := r.Histogram("lat_ns", []uint64{10, 100, 1000}, Label{"op", "put"})
	for _, v := range []uint64{5, 50, 500, 5000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	writePrometheus(&buf, r)
	text := buf.String()
	types, samples := parseExposition(t, text)

	if types["dewrite_ready"] != "gauge" {
		t.Fatalf("dewrite_ready TYPE %q", types["dewrite_ready"])
	}
	if types["dewrite_reqs_total"] != "counter" {
		t.Fatalf("dewrite_reqs_total TYPE %q", types["dewrite_reqs_total"])
	}
	if types["dewrite_lat_ns"] != "histogram" {
		t.Fatalf("dewrite_lat_ns TYPE %q", types["dewrite_lat_ns"])
	}

	n := checkHistogramFamily(t, "dewrite_lat_ns", `{op="put"}`, samples)
	if n != 4 {
		t.Fatalf("histogram _count %g, want 4", n)
	}
	// Pin the exact series block: buckets are cumulative with the observed
	// values spread one per bucket, and sum is exact.
	want := strings.Join([]string{
		`dewrite_lat_ns_bucket{op="put",le="10"} 1`,
		`dewrite_lat_ns_bucket{op="put",le="100"} 2`,
		`dewrite_lat_ns_bucket{op="put",le="1000"} 3`,
		`dewrite_lat_ns_bucket{op="put",le="+Inf"} 4`,
		`dewrite_lat_ns_sum{op="put"} 5555`,
		`dewrite_lat_ns_count{op="put"} 4`,
	}, "\n")
	if !strings.Contains(text, want) {
		t.Fatalf("exposition missing pinned histogram block:\n%s\n--- got ---\n%s", want, text)
	}

	// Counters: one TYPE line, both series, correct values.
	var put, get bool
	for _, s := range samples {
		if s.metric == "dewrite_reqs_total" {
			switch s.labels {
			case `{op="put"}`:
				put = s.value == 3
			case `{op="get"}`:
				get = s.value == 1
			}
		}
	}
	if !put || !get {
		t.Fatalf("counter series wrong:\n%s", text)
	}
	if strings.Count(text, "# TYPE dewrite_reqs_total counter") != 1 {
		t.Fatalf("counter family TYPE line not unique:\n%s", text)
	}
}

func TestHistogramExpositionConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy", []uint64{4, 16, 64, 256})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			v := seed
			for !stop.Load() {
				v = v*2862933555777941757 + 3037000493 // splitmix-style walk
				h.Observe(v % 512)
			}
		}(uint64(w + 1))
	}
	// Every scrape taken mid-update must still be internally consistent:
	// cumulative buckets and +Inf == _count.
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		writePrometheus(&buf, r)
		_, samples := parseExposition(t, buf.String())
		checkHistogramFamily(t, "dewrite_busy", "", samples)
	}
	stop.Store(true)
	wg.Wait()
}

func TestLatencyBoundsGeometry(t *testing.T) {
	bounds := LatencyBounds(1_000, 17_000_000_000, 2)
	if len(bounds) == 0 {
		t.Fatal("no bounds")
	}
	if bounds[0] > 1_000 {
		t.Fatalf("first bound %d above min", bounds[0])
	}
	if last := bounds[len(bounds)-1]; last < 17_000_000_000 {
		t.Fatalf("last bound %d below max", last)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly ascending at %d: %d <= %d", i, bounds[i], bounds[i-1])
		}
	}
	// Every bound is one of the simulator's latency bucket lower bounds, so
	// the two latency surfaces stay comparable.
	for _, b := range bounds {
		if got := stats.LatencyBucketLow(stats.LatencyBucketOf(b)); got != b {
			t.Fatalf("bound %d is not a stats.Latency bucket low (%d)", b, got)
		}
	}
	// Two per octave: in the log-spaced region successive ratios alternate
	// around sqrt(2); each bound at most doubles.
	for i := 1; i < len(bounds); i++ {
		if bounds[i] > 2*bounds[i-1] {
			t.Fatalf("gap wider than an octave: %d -> %d", bounds[i-1], bounds[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("perOctave=3 (does not divide 16) should panic")
		}
	}()
	LatencyBounds(1, 100, 3)
}

func TestSnapshotIncludesCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.Set("g", 2.5)
	r.Counter("c").Add(7)
	h := r.Histogram("h", []uint64{10}, Label{"op", "x"})
	h.Observe(3)
	h.Observe(40)

	snap := r.Snapshot()
	if snap["g"] != 2.5 || snap["c"] != 7 {
		t.Fatalf("snapshot %v", snap)
	}
	key := func(suffix string) string { return "h" + suffix + "\x00" + `{op="x"}` }
	if snap[key("_count")] != 2 {
		t.Fatalf("snapshot missing histogram count: %q -> %v", key("_count"), snap)
	}
	if snap[key("_sum")] != 43 {
		t.Fatalf("snapshot missing histogram sum: %v", snap)
	}
}

func TestReadyzFollowsProbe(t *testing.T) {
	var ready atomic.Bool
	srv, err := ServeWith("127.0.0.1:0", NewRegistry(), ServeOpts{
		Ready: func() bool { return ready.Load() },
		Slow: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, `{"slowest":[]}`)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz before ready: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz should not gate on readiness: %d", code)
	}
	ready.Store(true)
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz after ready: %d %q", code, body)
	}
	if code, body := get("/debug/slow"); code != http.StatusOK || body != `{"slowest":[]}` {
		t.Fatalf("/debug/slow: %d %q", code, body)
	}
}

func TestExpositionFamiliesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Inc()
	r.Counter("a_total").Inc()
	r.Counter("a_total", Label{"k", "v"}).Inc()
	var buf bytes.Buffer
	writePrometheus(&buf, r)
	_, samples := parseExposition(t, buf.String())
	var names []string
	for _, s := range samples {
		names = append(names, s.metric)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("counter families not sorted, labeled series not adjacent: %v", names)
	}
}

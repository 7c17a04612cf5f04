package monitor

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/experiments"
	"dewrite/internal/timeline"
)

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	r.Set("a.b", 1.5)
	r.Add("a.b", 0.5)
	r.Add("c", 3)
	if got := r.Get("a.b"); got != 2 {
		t.Fatalf("a.b = %v", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Fatalf("missing = %v", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["c"] != 3 {
		t.Fatalf("snapshot %v", snap)
	}
}

func TestRegistryConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Get("n"); got != 8000 {
		t.Fatalf("n = %v, want 8000", got)
	}
}

func TestPublishEpoch(t *testing.T) {
	r := NewRegistry()
	e := &timeline.Epoch{Index: 3, Requests: 4000, Writes: 2000, DupEliminated: 900, WearMax: 17}
	r.PublishEpoch("mcf/DeWrite", e)
	if got := r.Get("mcf/DeWrite.dup_eliminated"); got != 900 {
		t.Fatalf("dup_eliminated = %v", got)
	}
	if got := r.Get("mcf/DeWrite.wear_max"); got != 17 {
		t.Fatalf("wear_max = %v", got)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeLiveDuringParallelSuite is the acceptance-criteria check: while a
// parallel job grid is running, the endpoint must answer /healthz, expose the
// engine's per-worker progress gauges, and serve timeline gauges published
// from inside running jobs.
func TestServeLiveDuringParallelSuite(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	prev := experiments.SetProgress(reg.Progress())
	defer experiments.SetProgress(prev)

	// A small parallel grid; each job publishes an epoch and then probes the
	// endpoint — genuinely mid-suite traffic.
	release := make(chan struct{})
	var probed sync.WaitGroup
	probed.Add(1)
	var once sync.Once
	experiments.ForEach(4, 8, func(i int) {
		reg.PublishEpoch("job", &timeline.Epoch{Index: uint64(i), Requests: uint64(i) * 100})
		once.Do(func() {
			defer probed.Done()
			if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
				t.Errorf("/healthz = %d %q", code, body)
			}
			code, body := get(t, base+"/metrics")
			if code != 200 {
				t.Errorf("/metrics = %d", code)
			}
			for _, want := range []string{
				"# TYPE dewrite_engine_jobs_total gauge",
				"dewrite_engine_jobs_total 8",
				"dewrite_engine_workers 4",
				"dewrite_job_epoch",
			} {
				if !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q in:\n%s", want, body)
				}
			}
			if code, body := get(t, base+"/debug/vars"); code != 200 || !strings.Contains(body, "dewrite") {
				t.Errorf("/debug/vars = %d %q", code, body)
			}
			close(release)
		})
		<-release
	})

	probed.Wait()
	if got := reg.Get("engine.jobs_done"); got != 8 {
		t.Fatalf("jobs_done = %v, want 8", got)
	}
	if got := reg.Get("engine.jobs_active"); got != 0 {
		t.Fatalf("jobs_active = %v, want 0 after the suite", got)
	}
}

// TestServeSecondRegistry checks a fresh registry can be served later in the
// same process without an expvar duplicate-publish panic, and that
// /debug/vars follows the newest registry.
func TestServeSecondRegistry(t *testing.T) {
	r1 := NewRegistry()
	s1, err := Serve("127.0.0.1:0", r1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	r2 := NewRegistry()
	r2.Set("generation", 2)
	s2, err := Serve("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, body := get(t, "http://"+s2.Addr()+"/debug/vars"); !strings.Contains(body, "generation") {
		t.Fatalf("expvar did not follow the new registry: %s", body)
	}
}

// TestServeDebug checks the process's pprof profiles are served on the
// monitor mux: the index lists them, a named profile renders, and the
// separately routed cmdline handler answers.
func TestServeDebug(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/debug/pprof/cmdline":           "",
	} {
		if code, body := get(t, base+path); code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("GET %s = %d, want 200 with %q in:\n%s", path, code, want, body)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("mcf/DeWrite.wear_max"); got != "mcf_DeWrite_wear_max" {
		t.Fatalf("sanitize = %q", got)
	}
}

// TestLabeledGaugeEscaping pins the exposition-format escaping of hostile
// label values: backslash, double quote and newline must come out escaped, on
// one line, under a single TYPE header per metric family.
func TestLabeledGaugeEscaping(t *testing.T) {
	r := NewRegistry()
	hostile := "mcf\"q\\b\nend"
	r.SetLabeled("attr_cause_writes", []Label{{"run", hostile}, {"cause", "demand"}}, 42)
	r.SetLabeled("attr_cause_writes", []Label{{"run", hostile}, {"cause", "verify"}}, 7)
	var b strings.Builder
	writePrometheus(&b, r)
	out := b.String()
	want := `dewrite_attr_cause_writes{run="mcf\"q\\b\nend",cause="demand"} 42`
	if !strings.Contains(out, want+"\n") {
		t.Errorf("missing escaped series %q in:\n%s", want, out)
	}
	if got := strings.Count(out, "# TYPE dewrite_attr_cause_writes gauge"); got != 1 {
		t.Errorf("TYPE header count = %d, want 1 for the family:\n%s", got, out)
	}
	// 1 TYPE line + 2 series lines: the newline inside the label value must
	// not have produced extra lines.
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("line count = %d, want 3:\n%q", got, out)
	}
}

// TestPlainGaugeCannotSmuggleLabels: a plain Set name that merely looks like
// a label block is fully sanitized, never emitted as labels.
func TestPlainGaugeCannotSmuggleLabels(t *testing.T) {
	r := NewRegistry()
	r.Set(`evil{inject="raw"}`, 1)
	var b strings.Builder
	writePrometheus(&b, r)
	if out := b.String(); strings.Contains(out, `{`) {
		t.Fatalf("plain gauge leaked a label block:\n%s", out)
	}
}

func TestPublishAttributionNil(t *testing.T) {
	r := NewRegistry()
	r.PublishAttribution("lbm/dewrite", nil)
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil report published gauges: %v", snap)
	}
}

// parseSeries decodes one exposition-format sample line back into its metric
// name, unescaped label map, and value — the scrape side of the round trip.
func parseSeries(t *testing.T, line string) (string, map[string]string, float64) {
	t.Helper()
	labels := map[string]string{}
	metric, rest := line, ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		metric = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("unterminated label block: %q", line)
		}
		lab, k := line[i+1:j], 0
		for k < len(lab) {
			eq := strings.IndexByte(lab[k:], '=')
			key := lab[k : k+eq]
			k += eq + 2 // skip ="
			var val strings.Builder
			for ; k < len(lab) && lab[k] != '"'; k++ {
				c := lab[k]
				if c == '\\' {
					k++
					switch lab[k] {
					case 'n':
						c = '\n'
					case '\\':
						c = '\\'
					case '"':
						c = '"'
					default:
						t.Fatalf("bad escape \\%c in %q", lab[k], line)
					}
				}
				val.WriteByte(c)
			}
			labels[key] = val.String()
			k++ // closing quote
			if k < len(lab) && lab[k] == ',' {
				k++
			}
		}
		rest = line[j+1:]
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		metric, rest = line[:i], line[i:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return metric, labels, v
}

// TestScrapeRoundTrip is the end-to-end audit: every endpoint (pprof's index
// included) declares its Content-Type, and attribution gauges published under a hostile run name
// survive the /metrics scrape — parse the exposition text back and recover
// the exact label values and numbers that went in.
func TestScrapeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	hostile := "lbm\"x\\y\nz/dewrite"
	rep := &attr.Report{
		SamplePeriod: 64, SampledWrites: 3, SampledReads: 2,
		TotalLineWrites: 100, EnergyPJ: 1.5,
		Causes: []attr.CauseStat{
			{Cause: "demand", Writes: 60, EnergyPJ: 0.9},
			{Cause: "metadata", Writes: 40, EnergyPJ: 0.6},
		},
	}
	reg.PublishAttribution(hostile, rep)
	reg.Set("plain.gauge", 7)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	for path, want := range map[string]string{
		"/healthz":      "text/plain",
		"/metrics":      "text/plain; version=0.0.4",
		"/debug/vars":   "application/json",
		"/debug/pprof/": "text/html",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if !strings.HasPrefix(ct, want) {
			t.Errorf("%s Content-Type = %q, want prefix %q", path, ct, want)
		}
	}

	_, body := get(t, base+"/metrics")
	found := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		metric, labels, v := parseSeries(t, line)
		switch metric {
		case "dewrite_attr_cause_writes", "dewrite_attr_total_line_writes", "dewrite_attr_sampled_requests":
			if labels["run"] != hostile {
				t.Errorf("%s run label = %q, want %q", metric, labels["run"], hostile)
			}
			found[metric+"/"+labels["cause"]] = v
		case "dewrite_plain_gauge":
			found[metric] = v
		}
	}
	for key, want := range map[string]float64{
		"dewrite_attr_cause_writes/demand":   60,
		"dewrite_attr_cause_writes/metadata": 40,
		"dewrite_attr_total_line_writes/":    100,
		"dewrite_attr_sampled_requests/":     5,
		"dewrite_plain_gauge":                7,
	} {
		if got, ok := found[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestServeExposition is the end-to-end observability check CI runs as a
// smoke test: boot the daemon with its ops endpoint on a random port, drive
// client load, then validate the /metrics exposition the way a Prometheus
// scraper would — TYPE lines for all three metric kinds, cumulative
// (monotone) histogram buckets, and le="+Inf" equal to _count for every
// histogram series. When DEWRITE_SCRAPE_OUT is set the raw scrape is written
// there so CI can archive it as an artifact.
func TestServeExposition(t *testing.T) {
	srv, err := NewServer(Config{Shards: 4, Lines: 1 << 12, AdvanceEvery: 16, SlowK: 8})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := startOps("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ops.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Before Serve publishes generation zero the daemon is alive but not
	// ready: /healthz 200, /readyz 503.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before Serve: %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz before generation zero: %d %q", code, body)
	}

	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after generation zero: %d", code)
	}

	// Drive enough load to populate every metric kind and cross barriers.
	c := dial(srv.Addr())
	defer c.Close()
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("user:%d", k%40)
		if err := c.Put(key, []byte(fmt.Sprintf(`{"n":%d}`, k%3))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ServerStats(); err != nil {
		t.Fatal(err)
	}

	// The metric families the daemon promises (see ops.go) are all present.
	// The daemon counts a response just after flushing it, so the last
	// count may land a moment after the client has read the response: poll
	// the scrape for up to a second.
	wants := []string{
		"# TYPE dewrite_serve_ready gauge",
		"# TYPE dewrite_serve_requests_total counter",
		"# TYPE dewrite_serve_request_latency_ns histogram",
		"# TYPE dewrite_serve_barrier_stall_ns_total counter",
		"# TYPE dewrite_serve_advances_total counter",
		`dewrite_serve_requests_total{op="put"} 200`,
		`dewrite_serve_requests_total{op="get"} 200`,
		`dewrite_serve_requests_total{op="stats"} 1`,
	}
	var scrape string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		var code int
		if code, scrape = get("/metrics"); code != http.StatusOK {
			t.Fatalf("/metrics: %d", code)
		}
		if containsAll(scrape, wants) || time.Now().After(deadline) {
			break
		}
	}
	if out := os.Getenv("DEWRITE_SCRAPE_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(scrape), 0o644); err != nil {
			t.Fatalf("DEWRITE_SCRAPE_OUT: %v", err)
		}
	}
	validateExposition(t, scrape)
	for _, want := range wants {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// /debug/slow is valid JSON holding real captured requests.
	code, slow := get("/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow: %d", code)
	}
	var ring struct {
		K       int         `json:"k"`
		Slowest []slowEntry `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(slow), &ring); err != nil {
		t.Fatalf("/debug/slow not valid JSON: %v\n%s", err, slow)
	}
	if ring.K != 8 || len(ring.Slowest) == 0 {
		t.Fatalf("/debug/slow empty after 401 requests: %s", slow)
	}
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// validateExposition checks the whole scrape the way a strict scraper would:
// every sample belongs to a TYPE-declared family, histogram buckets are
// cumulative with ascending le values, and le="+Inf" equals _count per series.
func validateExposition(t *testing.T, scrape string) {
	t.Helper()
	types := make(map[string]string)
	// series → ordered (le, count) buckets; sums/counts keyed by full series.
	type histSeries struct {
		les    []float64 // +Inf as math.Inf is fine via ParseFloat
		counts []float64
	}
	hists := make(map[string]*histSeries)
	counts := make(map[string]float64)
	histFamilies := 0

	stripLe := func(labels string) string {
		if labels == "" {
			return ""
		}
		var kept []string
		for _, kv := range strings.Split(labels[1:len(labels)-1], ",") {
			if !strings.HasPrefix(kv, `le="`) {
				kept = append(kept, kv)
			}
		}
		if len(kept) == 0 {
			return ""
		}
		return "{" + strings.Join(kept, ",") + "}"
	}

	for ln, line := range strings.Split(strings.TrimRight(scrape, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if _, dup := types[f[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, f[2])
			}
			types[f[2]] = f[3]
			if f[3] == "histogram" {
				histFamilies++
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		value, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q", ln+1, line)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %s has no TYPE declaration", ln+1, name)
		}
		if types[family] != "histogram" {
			continue
		}
		series := family + stripLe(labels)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := ""
			for _, kv := range strings.Split(labels[1:len(labels)-1], ",") {
				if v, ok := strings.CutPrefix(kv, `le="`); ok {
					le = strings.TrimSuffix(v, `"`)
				}
			}
			lev, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("line %d: bad le %q", ln+1, le)
			}
			h := hists[series]
			if h == nil {
				h = &histSeries{}
				hists[series] = h
			}
			h.les = append(h.les, lev)
			h.counts = append(h.counts, value)
		case strings.HasSuffix(name, "_count"):
			counts[series] = value
		}
	}

	if histFamilies == 0 {
		t.Fatal("no histogram family in the scrape")
	}
	for series, h := range hists {
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				t.Fatalf("%s: le values not ascending at bucket %d", series, i)
			}
			if h.counts[i] < h.counts[i-1] {
				t.Fatalf("%s: bucket counts not cumulative at %d (%g < %g)",
					series, i, h.counts[i], h.counts[i-1])
			}
		}
		last := len(h.les) - 1
		if !strings.Contains(strconv.FormatFloat(h.les[last], 'g', -1, 64), "Inf") {
			t.Fatalf("%s: last bucket le=%g is not +Inf", series, h.les[last])
		}
		total, ok := counts[series]
		if !ok {
			t.Fatalf("%s: no _count sample", series)
		}
		if h.counts[last] != total {
			t.Fatalf(`%s: le="+Inf" %g != _count %g`, series, h.counts[last], total)
		}
	}
}

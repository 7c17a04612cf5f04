package main

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// slowEntry is one captured slow request. IDs are the frame-assigned request
// IDs (see serveConn), so an entry here correlates 1:1 with the structured
// log's slow_request lines and with any other log line carrying the same id.
type slowEntry struct {
	ID        uint64 `json:"id"`
	Op        string `json:"op"`
	Shard     int    `json:"shard"` // -1 for requests that never route (STATS)
	LatencyNs int64  `json:"latency_ns"`
}

// slowRing is a bounded capture of the K slowest recent requests. "Recent"
// is a request-count window, not wall time: an entry is evicted once the
// newest request ID has moved more than window frames past it, so a single
// startup outlier cannot squat in the ring forever. Admission replaces the
// current minimum only when the candidate is slower, so with a full ring the
// contents are exactly the K slowest requests inside the window.
type slowRing struct {
	mu      sync.Mutex
	k       int
	window  uint64
	newest  uint64
	entries []slowEntry
}

// slowWindow is the server's slow-ring recency window in frames.
const slowWindow = 1 << 16

func newSlowRing(k int, window uint64) *slowRing {
	if k < 1 {
		k = 1
	}
	if window == 0 {
		window = slowWindow
	}
	return &slowRing{k: k, window: window}
}

// record offers one finished request to the ring and reports whether it was
// admitted (i.e. it is currently among the K slowest recent requests).
func (r *slowRing) record(e slowEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.ID > r.newest {
		r.newest = e.ID
	}
	// Age out entries that fell off the recency window.
	kept := r.entries[:0]
	for _, old := range r.entries {
		if old.ID+r.window > r.newest {
			kept = append(kept, old)
		}
	}
	r.entries = kept
	if len(r.entries) < r.k {
		r.entries = append(r.entries, e)
		return true
	}
	min := 0
	for i, old := range r.entries {
		if old.LatencyNs < r.entries[min].LatencyNs {
			min = i
		}
	}
	if e.LatencyNs <= r.entries[min].LatencyNs {
		return false
	}
	r.entries[min] = e
	return true
}

// snapshot returns the current entries sorted slowest-first.
func (r *slowRing) snapshot() []slowEntry {
	r.mu.Lock()
	out := append([]slowEntry(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].LatencyNs != out[j].LatencyNs {
			return out[i].LatencyNs > out[j].LatencyNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ServeHTTP renders the ring as JSON for /debug/slow.
func (r *slowRing) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		K       int         `json:"k"`
		Window  uint64      `json:"window"`
		Slowest []slowEntry `json:"slowest"`
	}{K: r.k, Window: r.window, Slowest: r.snapshot()})
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// maxSpans caps a traced run's span log; later spans are counted, not kept.
const maxSpans = 200_000

// spanLog keeps a traced run's spans in memory until the run ends. Spans on
// one track (tid) nest by time, so a controller call drawn inside a replay
// span is that replay's child. A nil log records nothing. The serve clients
// add spans from their own goroutines.
type spanLog struct {
	start   time.Time
	mu      sync.Mutex
	events  []chromeEvent
	dropped int
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// times are microseconds since the log started.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

func (s *spanLog) add(name string, tid int, from, to time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= maxSpans {
		s.dropped++
		return
	}
	s.events = append(s.events, chromeEvent{
		Name: name, Ph: "X", Pid: 1, Tid: tid,
		Ts:  float64(from.Sub(s.start)) / 1e3,
		Dur: float64(to.Sub(from)) / 1e3,
	})
}

// writeChrome writes the log as a Chrome trace-event JSON file (open it in
// Perfetto or chrome://tracing).
func (s *spanLog) writeChrome(path string) error {
	data, err := json.Marshal(map[string]any{
		"traceEvents":     s.events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"dropped_spans": s.dropped},
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

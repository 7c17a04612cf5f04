package attr

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dewrite/internal/units"
)

// chromeTrace mirrors the trace-event JSON object format for validation.
type chromeTrace struct {
	OtherData struct {
		DroppedEvents uint64 `json:"droppedEvents"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int32   `json:"tid"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	} `json:"traceEvents"`
}

func parseTrace(t *testing.T, r *Recorder) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), `\x`) {
		t.Error(`trace contains \x escapes, which JSON parsers reject`)
	}
	return parsed
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	r := NewRecorder(1, 0)
	r.CaptureSpans(0)
	r.Begin(KindWrite, 1, 0x10, 1_000_000)
	r.Phase(PhaseHash, 1_000_000, 16_000_000) // 1 us + 15 us
	r.BankPhase(PhaseService, 1, 16_000_000, 316_000_000)
	r.End(316_000_000)

	threads := map[int32]string{}
	var sawHash, sawBank, sawRequest bool
	for _, e := range parseTrace(t, r).TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threads[e.Tid] = e.Args.Name
		case e.Ph == "X" && e.Name == "hash":
			sawHash = true
			if e.Ts != 1 || e.Dur != 15 || e.Cat != "phase" { // picoseconds rendered as microseconds
				t.Fatalf("hash span ts/dur/cat = %v/%v/%s, want 1/15/phase", e.Ts, e.Dur, e.Cat)
			}
		case e.Ph == "X" && e.Name == "bank-service":
			sawBank = e.Tid == bankTrack(1)
		case e.Ph == "X" && e.Name == "write":
			sawRequest = e.Tid == requestTrack(1) && e.Cat == "request"
		}
	}
	if !sawHash || !sawBank || !sawRequest {
		t.Fatalf("missing events: hash=%v bank=%v request=%v", sawHash, sawBank, sawRequest)
	}
	for id, want := range map[int32]string{
		phaseTrack(PhaseHash): "hash",
		bankTrack(1):          "bank 1",
		requestTrack(1):       "thread 1 requests",
	} {
		if threads[id] != want {
			t.Errorf("track %d named %q, want %q", id, threads[id], want)
		}
	}
}

// TestSpanAndTrackNames: phase and kind names label the spans, so each must
// have a name of its own, and each phase a track of its own below the
// request and bank tracks.
func TestSpanAndTrackNames(t *testing.T) {
	names := map[string]bool{}
	tracks := map[int32]bool{}
	for p := Phase(0); int(p) < NumPhases; p++ {
		name, id := p.String(), phaseTrack(p)
		if name == "unknown" || names[name] {
			t.Errorf("phase %d named %q", p, name)
		}
		if id >= trackRequestBase || tracks[id] {
			t.Errorf("phase %s on track %d", name, id)
		}
		if got := trackName(id); got != name {
			t.Errorf("track %d named %q, want %q", id, got, name)
		}
		names[name], tracks[id] = true, true
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if name := k.String(); name == "unknown" || names[name] {
			t.Errorf("kind %d named %q", k, name)
		} else {
			names[name] = true
		}
	}
	if Phase(NumPhases).String() != "unknown" || Kind(NumKinds).String() != "unknown" {
		t.Error("out-of-range phase or kind should be unknown")
	}
	for id, want := range map[int32]string{
		bankTrack(3):    "bank 3",
		requestTrack(0): "thread 0 requests",
	} {
		if got := trackName(id); got != want {
			t.Errorf("trackName(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestCaptureCapDrops pins the span cap: spans past it are counted, not kept,
// and the count reaches the trace's otherData.
func TestCaptureCapDrops(t *testing.T) {
	r := NewRecorder(1, 0)
	r.CaptureSpans(2)
	for i := 0; i < 5; i++ {
		r.Begin(KindRead, 0, uint64(i), 0)
		r.End(1)
	}
	if r.Captured() != 2 || r.Dropped() != 3 {
		t.Fatalf("captured %d, dropped %d; want 2, 3", r.Captured(), r.Dropped())
	}
	if got := parseTrace(t, r).OtherData.DroppedEvents; got != 3 {
		t.Fatalf("droppedEvents = %d, want 3", got)
	}
	if rep := r.Report(); rep.SampledReads != 5 {
		t.Fatalf("the cap trimmed the aggregates: %d sampled reads, want 5", rep.SampledReads)
	}
	if err := NewRecorder(1, 0).WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("a recorder without capture wrote a trace")
	}
}

// TestChromeTraceEscapesHostileNames: fmt's %q emits \x.. escapes for control
// characters, which is not valid JSON — the whole trace then fails to load.
// The writer must emit real JSON string escapes.
func TestChromeTraceEscapesHostileNames(t *testing.T) {
	r := NewRecorder(1, 0)
	r.CaptureSpans(0)
	hostile := []string{
		"quote\"brace}",
		"ctrl\x01\x02tab\t",
		"newline\nreturn\r",
		"unicode\u2028sep\u2029",
		"backslash\\slash/",
	}
	for i, name := range hostile {
		r.keep(name, phaseTrack(PhaseHash), units.Time(uint64(i)*1000), 500)
	}
	got := map[string]bool{}
	for _, e := range parseTrace(t, r).TraceEvents {
		got[e.Name] = true
	}
	for _, name := range hostile {
		if !got[name] {
			t.Errorf("label %q lost in the trace", name)
		}
	}
}

func TestUsecRendering(t *testing.T) {
	for ps, want := range map[uint64]string{
		0:         "0",
		1:         "0.000001",
		1_000_000: "1",
		1_500_000: "1.5",
		2_000_001: "2.000001",
	} {
		if got := usec(ps); got != want {
			t.Errorf("usec(%d) = %q, want %q", ps, got, want)
		}
	}
}

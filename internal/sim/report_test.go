package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/workload"
)

// runReport drives one mcf run of the scheme, with rec attached, and returns
// its report.
func runReport(t *testing.T, sch Scheme, rec *attr.Recorder) RunReport {
	t.Helper()
	prof, _ := workload.ByName("mcf")
	opts := Options{Requests: 3000, Warmup: 300, Seed: 7, Attr: rec}
	mem := NewMemory(sch, prof.WorkingSetLines, config.Default())
	res := Run(prof.Name, sch.String(), mem, prof, opts)
	return NewRunReport(res, mem)
}

// TestRunReportGoldenDeterminism is the golden determinism check: two runs
// with identical seeds must serialize to byte-identical reports.
func TestRunReportGoldenDeterminism(t *testing.T) {
	a := reportBytes(t, runReport(t, SchemeDeWrite, nil))
	b := reportBytes(t, runReport(t, SchemeDeWrite, nil))
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs produced different reports:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// checkNeutral is the observability promise for every scheme: a run without
// a recorder serializes no attribution block, and a run with newRec's
// recorder serializes a byte-identical report once that block is removed —
// the recorder observes the simulation, never steers it. check, when not
// nil, then inspects each scheme's recorder.
func checkNeutral(t *testing.T, newRec func() *attr.Recorder, check func(Scheme, *attr.Recorder)) {
	t.Helper()
	for _, sch := range []Scheme{SchemeDeWrite, SchemeDirect, SchemeParallel, SchemeSecureNVM, SchemeShredder} {
		off := runReport(t, sch, nil)
		if off.Attribution != nil {
			t.Fatalf("%s: disabled run serialized an attribution block", sch)
		}
		rec := newRec()
		on := runReport(t, sch, rec)
		if a := on.Attribution; a == nil || a.SampledWrites+a.SampledReads == 0 {
			t.Fatalf("%s: recorder attached but sampled nothing", sch)
		}
		on.Attribution = nil
		if a, b := reportBytes(t, off), reportBytes(t, on); !bytes.Equal(a, b) {
			t.Errorf("%s: the recorder changed the report:\n--- off ---\n%s\n--- on ---\n%s", sch, a, b)
		}
		if check != nil {
			check(sch, rec)
		}
	}
}

// TestAttributionOffByteIdentical: sampling every 64th request leaves every
// scheme's report byte-identical to a run without a recorder.
func TestAttributionOffByteIdentical(t *testing.T) {
	checkNeutral(t, func() *attr.Recorder { return attr.NewRecorder(64, 7) }, nil)
}

// TestRunReportTracerNeutral: capturing spans of every request under a small
// cap leaves every scheme's report byte-identical too, and the capture must
// parse as a Chrome trace with stage, bank and request tracks that counts
// the spans its cap dropped.
func TestRunReportTracerNeutral(t *testing.T) {
	const maxSpans = 4096
	checkNeutral(t, func() *attr.Recorder {
		r := attr.NewRecorder(1, 7)
		r.CaptureSpans(maxSpans)
		return r
	}, func(sch Scheme, rec *attr.Recorder) { checkCapture(t, sch, rec, maxSpans) })
}

// checkCapture parses a capped capture's Chrome trace and checks its tracks
// and drop count.
func checkCapture(t *testing.T, sch Scheme, rec *attr.Recorder, maxSpans int) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("%s: %v", sch, err)
	}
	var trace struct {
		OtherData struct {
			DroppedEvents uint64 `json:"droppedEvents"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("%s: capture is not valid JSON: %v", sch, err)
	}
	if rec.Captured() != maxSpans || rec.Dropped() == 0 || trace.OtherData.DroppedEvents != rec.Dropped() {
		t.Errorf("%s: captured %d, dropped %d, trace says %d dropped; want the %d-span cap hit",
			sch, rec.Captured(), rec.Dropped(), trace.OtherData.DroppedEvents, maxSpans)
	}
	tracks := map[string]bool{}
	spans := 0
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				tracks[e.Args.Name] = true
			}
		case "X":
			spans++
		}
	}
	if spans != maxSpans {
		t.Errorf("%s: %d spans in the trace, want %d", sch, spans, maxSpans)
	}
	for _, want := range []string{"encrypt", "bank 0", "thread 0 requests"} {
		if !tracks[want] {
			t.Errorf("%s: no %q track among %v", sch, want, tracks)
		}
	}
}

// TestRunReportJSONRoundTrip checks the report unmarshals back into an equal
// value, and that the schema and percentile fields survive.
func TestRunReportJSONRoundTrip(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	opts := Options{Requests: 2000, Warmup: 200, Seed: 11}
	mem := NewMemory(SchemeSecureNVM, prof.WorkingSetLines, config.Default())
	res := Run(prof.Name, SchemeSecureNVM.String(), mem, prof, opts)
	rep := NewRunReport(res, mem)
	if rep.Baseline == nil || rep.Controller != nil {
		t.Fatal("SecureNVM run must embed the baseline section only")
	}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back RunReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("report did not round-trip:\n%+v\n%+v", rep, back)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", back.Schema, ReportSchema)
	}
	wl := back.WriteLatency
	if wl.P50Ps == 0 || wl.P95Ps == 0 || wl.P99Ps == 0 {
		t.Fatalf("missing write percentiles: %+v", wl)
	}
	if wl.P50Ps > wl.P95Ps || wl.P95Ps > wl.P99Ps {
		t.Fatalf("percentiles not monotone: %+v", wl)
	}
}

// TestRunReportControllerSection checks the DeWrite scheme embeds the core
// controller report with its dedup counters.
func TestRunReportControllerSection(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	opts := Options{Requests: 2000, Warmup: 200, Seed: 3}
	res, mem := RunScheme(SchemeDeWrite, prof, config.Default(), opts)
	rep := NewRunReport(res, mem)
	if rep.Controller == nil || rep.Baseline != nil {
		t.Fatal("DeWrite run must embed the controller section only")
	}
	if rep.Controller.Writes == 0 {
		t.Fatal("controller section has no writes")
	}
}

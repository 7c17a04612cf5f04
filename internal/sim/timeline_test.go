package sim

import (
	"bytes"
	"strings"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/timeline"
	"dewrite/internal/workload"
)

// timelineRun drives one scheme over the prepared stream with an epoch
// collector attached and returns the run's timeline.
func timelineRun(t *testing.T, s Scheme, prep *Prepared, prof workload.Profile, every uint64) (*timeline.Report, Result) {
	t.Helper()
	opts := Options{
		Requests: len(prep.Requests),
		Warmup:   prep.Warmup,
		Prepared: prep,
		Timeline: timeline.NewByRequests(every),
	}
	mem := NewMemory(s, prof.WorkingSetLines, config.Default())
	res := Run(prof.Name, s.String(), mem, prof, opts)
	if res.Timeline == nil {
		t.Fatalf("%s: run with collector produced no timeline", s)
	}
	return res.Timeline, res
}

// TestTimelineWearCurveGolden is the acceptance-criteria wear comparison:
// over the identical request stream, DeWrite's max data-line wear must grow
// no faster than SecureNVM's at every epoch and end strictly lower — the
// time-resolved form of the paper's endurance claim.
func TestTimelineWearCurveGolden(t *testing.T) {
	prof, ok := workload.ByName("blackscholes") // highest dup ratio: strongest wear contrast
	if !ok {
		t.Fatal("profile missing")
	}
	prep := Prepare(prof, Options{Requests: 8000, Warmup: 800, Seed: 42})
	const every = 1000

	dw, _ := timelineRun(t, SchemeDeWrite, prep, prof, every)
	sn, _ := timelineRun(t, SchemeSecureNVM, prep, prof, every)

	if len(dw.Epochs) == 0 || len(dw.Epochs) != len(sn.Epochs) {
		t.Fatalf("epoch counts differ: DeWrite %d, SecureNVM %d", len(dw.Epochs), len(sn.Epochs))
	}
	var prevDW, prevSN uint64
	for i := range dw.Epochs {
		d, s := dw.Epochs[i], sn.Epochs[i]
		if d.Requests != s.Requests {
			t.Fatalf("epoch %d covers different requests: %d vs %d", i, d.Requests, s.Requests)
		}
		if d.WearMax < prevDW || s.WearMax < prevSN {
			t.Fatalf("epoch %d: max wear decreased (DeWrite %d<-%d, SecureNVM %d<-%d)",
				i, d.WearMax, prevDW, s.WearMax, prevSN)
		}
		prevDW, prevSN = d.WearMax, s.WearMax
		if d.WearMax > s.WearMax {
			t.Errorf("epoch %d: DeWrite max wear %d exceeds SecureNVM %d", i, d.WearMax, s.WearMax)
		}
	}
	last := len(dw.Epochs) - 1
	if dw.Epochs[last].WearMax >= sn.Epochs[last].WearMax {
		t.Fatalf("final epoch: DeWrite max wear %d not below SecureNVM %d",
			dw.Epochs[last].WearMax, sn.Epochs[last].WearMax)
	}
	// The dedup signal itself must be visible in the series.
	if dw.Epochs[last].DupEliminated == 0 {
		t.Fatal("DeWrite timeline recorded no eliminated writes")
	}
	if sn.Epochs[last].DevWrites <= dw.Epochs[last].DevWrites {
		t.Fatalf("device writes: DeWrite %d not below SecureNVM %d",
			dw.Epochs[last].DevWrites, sn.Epochs[last].DevWrites)
	}
}

// TestTimelineObservational asserts the collector contract: attaching one
// changes nothing in the rest of the report.
func TestTimelineObservational(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	run := func(tl *timeline.Collector) []byte {
		opts := Options{Requests: 3000, Warmup: 300, Seed: 7, Timeline: tl}
		mem := NewMemory(SchemeDeWrite, prof.WorkingSetLines, config.Default())
		res := Run(prof.Name, SchemeDeWrite.String(), mem, prof, opts)
		rep := NewRunReport(res, mem)
		rep.Timeline = nil
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	off := run(nil)
	on := run(timeline.NewByRequests(500))
	if !bytes.Equal(off, on) {
		t.Fatalf("collector changed the report:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
}

// TestTimelineInRunReport checks the v2 schema carries the block and that
// DecodeRunReport accepts v2, accepts v1, and rejects anything else.
func TestTimelineInRunReport(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	opts := Options{Requests: 2000, Warmup: 200, Seed: 11, Timeline: timeline.NewByRequests(400)}
	mem := NewMemory(SchemeShredder, prof.WorkingSetLines, config.Default())
	res := Run(prof.Name, SchemeShredder.String(), mem, prof, opts)
	rep := NewRunReport(res, mem)
	if rep.Schema != ReportSchema || rep.Timeline == nil {
		t.Fatalf("schema %q timeline %v", rep.Schema, rep.Timeline)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"timeline\"") {
		t.Fatal("serialized report has no timeline block")
	}

	back, err := DecodeRunReport(buf.Bytes())
	if err != nil {
		t.Fatalf("decode v2: %v", err)
	}
	if back.Timeline == nil || len(back.Timeline.Epochs) != len(rep.Timeline.Epochs) {
		t.Fatal("decode lost the timeline")
	}
	// Shredder runs report zero-write elimination in the series.
	lastEpoch := back.Timeline.Epochs[len(back.Timeline.Epochs)-1]
	if lastEpoch.ZeroWrites == 0 || lastEpoch.DupEliminated != lastEpoch.ZeroWrites {
		t.Fatalf("shredder epoch zero=%d eliminated=%d", lastEpoch.ZeroWrites, lastEpoch.DupEliminated)
	}

	v1 := bytes.Replace(buf.Bytes(), []byte(ReportSchema), []byte(ReportSchemaV1), 1)
	if _, err := DecodeRunReport(v1); err != nil {
		t.Fatalf("decode v1: %v", err)
	}
	bogus := bytes.Replace(buf.Bytes(), []byte(ReportSchema), []byte("dewrite/run/v99"), 1)
	if _, err := DecodeRunReport(bogus); err == nil {
		t.Fatal("decode accepted an unknown schema")
	}
}

package workload

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"dewrite/internal/trace"
)

// waitAhead polls until the producer has queued want chunks ahead of the
// consumer, the most its window allows at that point of the stream.
func waitAhead(t *testing.T, s *Stream, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.full) < want {
		if time.Now().After(deadline) {
			t.Fatalf("producer queued %d chunks ahead, want %d", len(s.full), want)
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// TestStreamMatchesGenerator: a recycling stream hands out exactly the
// requests a non-recycling generator produces, with the same ground-truth
// snapshots. Each chunk is checked only once the producer has filled the
// whole window ahead of it; over 16 lines that rewrites every line many
// times, so a payload recycled before its chunk is released shows up as
// changed bytes.
func TestStreamMatchesGenerator(t *testing.T) {
	prof, _ := ByName("mcf")
	prof.WorkingSetLines = 16
	for _, tc := range []struct{ n, warmup int }{
		{700, 100},
		{streamChunk, 512},
		{streamChunk + 1, streamChunk},
		{5000, 4999},
		{5*streamChunk + 1000, 2000}, // more chunks than the window holds
	} {
		ref := NewGenerator(prof, 9)
		want := make([]trace.Request, tc.n)
		var refWarm Stats
		for i := range want {
			if i == tc.warmup {
				refWarm = ref.Stats()
			}
			want[i] = ref.Next()
		}

		gen := NewGenerator(prof, 9)
		gen.SetRecycle(true)
		s := NewStream(gen, tc.n, tc.warmup)
		got := 0
		for reqs := s.Next(); reqs != nil; reqs = s.Next() {
			left := (tc.n - got - len(reqs) + streamChunk - 1) / streamChunk
			waitAhead(t, s, min(left, streamDepth-1))
			for _, r := range reqs {
				w := want[got]
				if r.Op != w.Op || r.Addr != w.Addr || r.Thread != w.Thread ||
					r.Gap != w.Gap || !bytes.Equal(r.Data, w.Data) {
					t.Fatalf("n=%d: request %d (%v line %d) differs from the generator's (%v line %d)",
						tc.n, got, r.Op, r.Addr, w.Op, w.Addr)
				}
				got++
			}
		}
		if got != tc.n {
			t.Fatalf("n=%d: stream handed out %d requests", tc.n, got)
		}
		warm, final := s.Stats()
		if warm != refWarm || final != ref.Stats() {
			t.Errorf("n=%d: stats %+v / %+v, want %+v / %+v", tc.n, warm, final, refWarm, ref.Stats())
		}
		s.Close()
		s.Close() // idempotent after the end
	}
}

// TestStreamCloseWhileProducerWaits: Close returns while the producer is
// blocked on a full window, and the producer's goroutine exits.
func TestStreamCloseWhileProducerWaits(t *testing.T) {
	prof, _ := ByName("lbm")
	prof.WorkingSetLines = 256
	base := runtime.NumGoroutine()
	gen := NewGenerator(prof, 1)
	gen.SetRecycle(true)
	s := NewStream(gen, 100*streamChunk, 0)
	if s.Next() == nil {
		t.Fatal("no first chunk")
	}
	waitAhead(t, s, streamDepth-1)
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

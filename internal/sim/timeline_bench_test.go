package sim

import (
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/timeline"
	"dewrite/internal/workload"
)

// benchRun drives one DeWrite run over a shared prepared stream, with or
// without an epoch collector; the pair backs DESIGN.md's sampling-overhead
// budget (compare the two ns/op figures).
func benchRun(b *testing.B, prep *Prepared, prof workload.Profile, every uint64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := Options{
			Requests: len(prep.Requests),
			Warmup:   prep.Warmup,
			Prepared: prep,
		}
		if every > 0 {
			opts.Timeline = timeline.NewByRequests(every)
		}
		mem := NewMemory(SchemeDeWrite, prof.WorkingSetLines, config.Default())
		res := Run(prof.Name, SchemeDeWrite.String(), mem, prof, opts)
		if every > 0 && res.Timeline == nil {
			b.Fatal("no timeline")
		}
	}
}

func benchProfile(b *testing.B) (*Prepared, workload.Profile) {
	b.Helper()
	prof, ok := workload.ByName("mcf")
	if !ok {
		b.Fatal("profile missing")
	}
	return Prepare(prof, Options{Requests: 20000, Warmup: 2000, Seed: 42}), prof
}

func BenchmarkRunNoTimeline(b *testing.B) {
	prep, prof := benchProfile(b)
	b.ResetTimer()
	benchRun(b, prep, prof, 0)
}

// 64 epochs over the run — the dewrite-sim default epoch granularity.
func BenchmarkRunTimeline64Epochs(b *testing.B) {
	prep, prof := benchProfile(b)
	b.ResetTimer()
	benchRun(b, prep, prof, 20000/64)
}

// One epoch per 100 requests — far finer than the default, as a worst case.
func BenchmarkRunTimelineFineEpochs(b *testing.B) {
	prep, prof := benchProfile(b)
	b.ResetTimer()
	benchRun(b, prep, prof, 100)
}

package sim

import (
	"reflect"
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/baseline"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/fault"
	"dewrite/internal/trace"
	"dewrite/internal/units"
)

// TestTimingOnlyReadsMatchBufferedReads replays one prepared stream through
// two copies of each scheme: one reads every line into a buffer, the other
// passes a nil dst, the timing-only read the harness makes. Faults are armed
// at a bit-error rate high enough that reads draw transient flips, which a
// timing-only read must draw too, and the integrity variants still hash the
// (flipped) ciphertext. Completion times must agree after every request; the
// scheme's report, the device's stats and wear, and the attribution
// recorders' reports (op counts included) must agree at the end.
func TestTimingOnlyReadsMatchBufferedReads(t *testing.T) {
	prof := smallProfile()
	prep := Prepare(prof, Options{Requests: 6000, Seed: 11})
	cfg := testConfig()
	lines := prof.WorkingSetLines
	fcfg := fault.Config{Seed: 5, Endurance: 400, ReadBER: 0.05}
	withTree := func(mode core.Mode) func() Memory {
		return func() Memory {
			return core.New(core.Options{DataLines: lines, Config: cfg, Mode: mode, Faults: fcfg, Integrity: true})
		}
	}
	plain := func(s Scheme) func() Memory {
		return func() Memory { return NewMemoryWith(s, lines, cfg, fcfg, false) }
	}
	cases := []struct {
		name  string
		build func() Memory
	}{
		{"DeWrite", plain(SchemeDeWrite)},
		{"DeWrite+integrity", withTree(core.ModeDeWrite)},
		{"Direct", plain(SchemeDirect)},
		{"Direct+integrity", withTree(core.ModeDirect)},
		{"Parallel", plain(SchemeParallel)},
		{"Parallel+integrity", withTree(core.ModeParallel)},
		{"SecureNVM", plain(SchemeSecureNVM)},
		{"Shredder", plain(SchemeShredder)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buffered, timing := c.build(), c.build()
			recB, recT := attr.NewRecorder(8, 3), attr.NewRecorder(8, 3)
			AttachAttr(buffered, recB)
			AttachAttr(timing, recT)
			var nowB, nowT units.Time
			var line [config.LineSize]byte
			for i := range prep.Requests {
				req := &prep.Requests[i]
				kind := attr.KindRead
				if req.Op == trace.Write {
					kind = attr.KindWrite
				}
				recB.Begin(kind, req.Thread, req.Addr, nowB)
				recT.Begin(kind, req.Thread, req.Addr, nowT)
				if req.Op == trace.Write {
					nowB = buffered.Write(nowB, req.Addr, req.Data)
					nowT = timing.Write(nowT, req.Addr, req.Data)
				} else {
					nowB = buffered.ReadInto(nowB, req.Addr, line[:])
					nowT = timing.ReadInto(nowT, req.Addr, nil)
				}
				recB.End(nowB)
				recT.End(nowT)
				if nowB != nowT {
					t.Fatalf("request %d (%v of %#x): buffered read path done at %v, timing-only at %v",
						i, req.Op, req.Addr, nowB, nowT)
				}
			}

			if got, want := schemeReport(timing), schemeReport(buffered); !reflect.DeepEqual(got, want) {
				t.Errorf("scheme report:\ntiming-only %+v\n   buffered %+v", got, want)
			}
			devB, devT := DeviceOf(buffered), DeviceOf(timing)
			if got, want := devT.Stats(), devB.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("device stats:\ntiming-only %+v\n   buffered %+v", got, want)
			}
			if got, want := devT.WearStats(), devB.WearStats(); !reflect.DeepEqual(got, want) {
				t.Errorf("wear:\ntiming-only %+v\n   buffered %+v", got, want)
			}
			if got, want := devT.FaultStats(), devB.FaultStats(); got != want {
				t.Errorf("fault stats:\ntiming-only %+v\n   buffered %+v", got, want)
			}
			repB, repT := recB.Report(), recT.Report()
			if !reflect.DeepEqual(repT, repB) {
				t.Errorf("attribution report:\ntiming-only %+v\n   buffered %+v", repT, repB)
			}

			// The comparison means something only if reads drew flips and
			// the sampled reads counted their pads.
			if devB.FaultStats().TransientBitFlips == 0 {
				t.Error("no transient bit flips: the fault draws were not exercised")
			}
			if readPads(repB) == 0 {
				t.Error("no aes-pad ops on sampled reads")
			}
		})
	}
}

// schemeReport returns the scheme's own statistics snapshot, as the run
// report reads it.
func schemeReport(mem Memory) any {
	switch m := mem.(type) {
	case *core.Controller:
		return m.Report()
	case *baseline.SecureNVM:
		return m.Report()
	case *baseline.Shredder:
		return m.Inner().Report()
	}
	panic("sim: no report for " + reflect.TypeOf(mem).String())
}

// readPads returns the aes-pad ops the recorder counted on sampled reads.
func readPads(rep *attr.Report) uint64 {
	for _, o := range rep.Ops {
		if o.Kind == attr.KindRead.String() && o.Op == attr.OpAESPad.String() {
			return o.Count
		}
	}
	return 0
}

package sim

import (
	"testing"

	"dewrite/internal/attr"
	"dewrite/internal/config"
	"dewrite/internal/fault"
	"dewrite/internal/workload"
)

// attrRun drives one attributed run and returns the result plus the memory
// that finished it (the recovered one after a crash point).
func attrRun(t *testing.T, sch Scheme, rec *attr.Recorder, fcfg fault.Config, crashAt uint64) (Result, Memory) {
	t.Helper()
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf profile")
	}
	opts := Options{Requests: 3000, Warmup: 300, Seed: 7, Attr: rec, Faults: fcfg, CrashAt: crashAt}
	mem := NewMemoryWith(sch, prof.WorkingSetLines, config.Default(), fcfg, crashAt != 0)
	res := Run(prof.Name, sch.String(), mem, prof, opts)
	return res, res.FinalMemory()
}

// TestAttributionAccountingInvariant pins the funnel property: because every
// physical line write passes through the device's writeArray, the per-cause
// provenance counters sum exactly to the device's total line writes — for
// every scheme, with and without fault injection.
func TestAttributionAccountingInvariant(t *testing.T) {
	cases := []struct {
		name string
		fcfg fault.Config
	}{
		{"nofaults", fault.Config{}},
		{"faults", fault.Config{Endurance: 300, ReadBER: 1e-4, Seed: 3}},
	}
	for _, sch := range []Scheme{SchemeDeWrite, SchemeDirect, SchemeParallel, SchemeSecureNVM, SchemeShredder} {
		for _, c := range cases {
			rec := attr.NewRecorder(256, 7)
			res, mem := attrRun(t, sch, rec, c.fcfg, 0)
			a := res.Attribution
			if a == nil {
				t.Fatalf("%s/%s: no attribution block", sch, c.name)
			}
			var sum uint64
			for _, cs := range a.Causes {
				sum += cs.Writes
			}
			if sum != a.TotalLineWrites {
				t.Errorf("%s/%s: causes sum to %d, total_line_writes says %d", sch, c.name, sum, a.TotalLineWrites)
			}
			dev := DeviceOf(mem)
			if dev == nil {
				t.Fatalf("%s/%s: no device", sch, c.name)
			}
			if got := dev.Stats().Writes; sum != got {
				t.Errorf("%s/%s: causes sum to %d line writes, device counted %d", sch, c.name, sum, got)
			}
			if sum == 0 {
				t.Errorf("%s/%s: ledger recorded nothing", sch, c.name)
			}
		}
	}
}

// TestAttributionLedgerCumulativeAcrossCrash: the recorder survives a crash
// point (the simulator re-attaches it to the recovered device), so the
// ledger's total covers both power cycles while the device's own counters
// restart at the crash.
func TestAttributionLedgerCumulativeAcrossCrash(t *testing.T) {
	rec := attr.NewRecorder(256, 7)
	res, mem := attrRun(t, SchemeDeWrite, rec, fault.Config{}, 1500)
	if res.Crash == nil {
		t.Fatal("crash point did not fire")
	}
	dev := DeviceOf(mem)
	if dev == nil {
		t.Fatal("no device after recovery")
	}
	total, post := rec.Ledger().Total(), dev.Stats().Writes
	if total < post {
		t.Fatalf("cumulative ledger %d < post-crash device writes %d", total, post)
	}
	if total == 0 || post == 0 {
		t.Fatalf("degenerate crash run: ledger %d, post-crash device %d", total, post)
	}
	if res.Attribution.TotalLineWrites != total {
		t.Fatalf("report total %d != ledger total %d", res.Attribution.TotalLineWrites, total)
	}
}

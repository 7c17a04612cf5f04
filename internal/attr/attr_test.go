package attr

import (
	"bytes"
	"strings"
	"testing"

	"dewrite/internal/rng"
	"dewrite/internal/units"
)

// TestNilSafety drives every exported method on the nil recorder and ledger;
// the disabled instrument must be safe and inert.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.SamplePeriod() != 0 {
		t.Fatal("nil recorder reports a sampling period")
	}
	r.CaptureSpans(8)
	if r.Capturing() || r.Captured() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder claims to capture")
	}
	r.Begin(KindWrite, 0, 1, 0)
	if r.Sampling() {
		t.Fatal("nil recorder claims to be sampling")
	}
	r.Phase(PhaseHash, 0, 10)
	r.BankPhase(PhaseService, 3, 0, 10)
	r.Op(OpCRC)
	r.End(10)
	if rep := r.Report(); rep != nil {
		t.Fatalf("nil recorder built a report: %+v", rep)
	}
	if err := r.WriteFolded(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProvenanceCSV(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil recorder wrote a Chrome trace")
	}

	led := r.Ledger()
	if led != nil {
		t.Fatal("nil recorder returned a live ledger")
	}
	led.RecordWrite(CauseDemand, 0, 1)
	if led.Total() != 0 || led.Writes(CauseDemand) != 0 || led.EnergyPJ(CauseDemand) != 0 {
		t.Fatal("nil ledger accumulated")
	}
	if led.Causes() != nil || led.BankWrites(CauseDemand) != nil || led.TotalEnergyPJ() != 0 {
		t.Fatal("nil ledger produced output")
	}
}

// TestSamplingDeterministic pins the every-Nth rule: the sampled request
// indices are exactly {offset, offset+N, ...} with the offset derived from
// the seed alone, so two recorders with the same (period, seed) sample the
// same requests.
func TestSamplingDeterministic(t *testing.T) {
	const period, seed = 8, 42
	r := NewRecorder(period, seed)
	want := rng.New(seed).Uint64n(period)
	var sampledIdx []uint64
	for i := uint64(0); i < 64; i++ {
		r.Begin(KindWrite, 0, i, units.Time(i))
		if r.Sampling() {
			sampledIdx = append(sampledIdx, i)
		}
		r.End(units.Time(i + 1))
	}
	if len(sampledIdx) != 64/period {
		t.Fatalf("sampled %d requests, want %d", len(sampledIdx), 64/period)
	}
	for j, idx := range sampledIdx {
		if idx != want+uint64(j)*period {
			t.Fatalf("sampled index %d = %d, want %d", j, idx, want+uint64(j)*period)
		}
	}

	// Identical (period, seed) → identical report bytes.
	other := NewRecorder(period, seed)
	for i := uint64(0); i < 64; i++ {
		other.Begin(KindWrite, 0, i, units.Time(i))
		other.End(units.Time(i + 1))
	}
	var a, b bytes.Buffer
	if err := r.WriteFolded(&a); err != nil {
		t.Fatal(err)
	}
	if err := other.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("folded stacks diverge:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestPhaseAttribution checks phases and ops are attributed only inside an
// open sampled context and land under the right kind.
func TestPhaseAttribution(t *testing.T) {
	r := NewRecorder(1, 0) // sample everything
	r.Begin(KindWrite, 0, 7, 100)
	r.Phase(PhaseHash, 100, 115)
	r.Phase(PhaseVerify, 115, 190)
	r.Op(OpCRC)
	r.Op(OpProbe)
	r.End(200)

	// Outside any open context: discarded.
	r.Phase(PhaseHash, 0, 1000)
	r.Op(OpCRC)

	r.Begin(KindRead, 0, 9, 300)
	r.Phase(PhaseEncrypt, 300, 396)
	r.End(400)

	rep := r.Report()
	if rep.SampledWrites != 1 || rep.SampledReads != 1 {
		t.Fatalf("sampled counts = %d/%d, want 1/1", rep.SampledWrites, rep.SampledReads)
	}
	if rep.SampledWritePs != 100 || rep.SampledReadPs != 100 {
		t.Fatalf("sampled totals = %d/%d ps, want 100/100", rep.SampledWritePs, rep.SampledReadPs)
	}
	wantPhases := map[string]uint64{
		"write/hash":   15,
		"write/verify": 75,
		"read/encrypt": 96,
	}
	if len(rep.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %d entries", rep.Phases, len(wantPhases))
	}
	for _, ps := range rep.Phases {
		if got := wantPhases[ps.Kind+"/"+ps.Phase]; ps.TotalPs != got || ps.Count != 1 {
			t.Fatalf("phase %s/%s = {count %d, %d ps}, want {1, %d}", ps.Kind, ps.Phase, ps.Count, ps.TotalPs, got)
		}
	}
	if len(rep.Ops) != 2 {
		t.Fatalf("ops = %+v, want crc and probe once each", rep.Ops)
	}
	for _, op := range rep.Ops {
		if op.Kind != "write" || op.Count != 1 {
			t.Fatalf("op %+v, want write kind count 1", op)
		}
	}
}

// TestLedgerAccounting checks the per-cause counters, the per-bank
// breakdown, and that Total is the sum of the causes.
func TestLedgerAccounting(t *testing.T) {
	var led Ledger
	led.RecordWrite(CauseDemand, 0, 100)
	led.RecordWrite(CauseDemand, 3, 100)
	led.RecordWrite(CauseMetadata, 3, 100)
	led.RecordWrite(CauseRemap, -1, 50) // no bank visibility
	if led.Total() != 4 {
		t.Fatalf("total = %d, want 4", led.Total())
	}
	if led.Writes(CauseDemand) != 2 || led.EnergyPJ(CauseDemand) != 200 {
		t.Fatalf("demand = %d writes / %v pJ", led.Writes(CauseDemand), led.EnergyPJ(CauseDemand))
	}
	if bw := led.BankWrites(CauseDemand); len(bw) != 4 || bw[0] != 1 || bw[3] != 1 {
		t.Fatalf("demand bank writes = %v", bw)
	}
	if led.BankWrites(CauseRemap) != nil {
		t.Fatal("bankless cause grew a bank slice")
	}
	causes := led.Causes()
	if len(causes) != NumCauses {
		t.Fatalf("causes = %d entries, want %d (stable set)", len(causes), NumCauses)
	}
	var sum uint64
	for _, c := range causes {
		sum += c.Writes
	}
	if sum != led.Total() {
		t.Fatalf("cause sum %d != total %d", sum, led.Total())
	}
	if led.TotalEnergyPJ() != 350 {
		t.Fatalf("total energy = %v, want 350", led.TotalEnergyPJ())
	}
}

// TestFoldedOutput pins the folded-stack format: sorted lines, kind roots,
// kind;phase frames, picosecond weights.
func TestFoldedOutput(t *testing.T) {
	r := NewRecorder(1, 0)
	r.Begin(KindWrite, 0, 1, 0)
	r.Phase(PhaseHash, 0, 15)
	r.BankPhase(PhaseQueue, 2, 15, 40)
	r.End(300)
	var buf bytes.Buffer
	if err := r.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "write 300\nwrite;bank-queue 25\nwrite;hash 15\n"
	if buf.String() != want {
		t.Fatalf("folded = %q, want %q", buf.String(), want)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if !sortedStrings(lines) {
		t.Fatalf("folded lines not sorted: %q", lines)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestProvenanceCSV pins the CSV shape: header, per-cause "all" rows for the
// full taxonomy, per-bank rows only where writes landed.
func TestProvenanceCSV(t *testing.T) {
	r := NewRecorder(1, 0)
	led := r.Ledger()
	led.RecordWrite(CauseUnique, 2, 847)
	led.RecordWrite(CauseUnique, 2, 847)
	led.RecordWrite(CauseMetadata, 0, 847)
	var buf bytes.Buffer
	if err := r.WriteProvenanceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "cause,bank,writes,energy_pj" {
		t.Fatalf("header = %q", lines[0])
	}
	// 1 header + NumCauses "all" rows + 2 bank rows.
	if len(lines) != 1+NumCauses+2 {
		t.Fatalf("%d lines:\n%s", len(lines), buf.String())
	}
	wantRows := map[string]bool{
		"unique,all,2,1694":  true,
		"unique,2,2,1694":    true,
		"metadata,all,1,847": true,
		"metadata,0,1,847":   true,
		"demand,all,0,0":     true,
	}
	seen := 0
	for _, l := range lines[1:] {
		if wantRows[l] {
			seen++
		}
	}
	if seen != len(wantRows) {
		t.Fatalf("missing expected rows in:\n%s", buf.String())
	}
}

// TestDisabledPathZeroAlloc is the allocs-per-op pin for the disabled layer:
// the nil recorder and the enabled-but-unsampled fast path (span capture on
// or off) must allocate nothing per request.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() {
		nilRec.Begin(KindWrite, 0, 1, 0)
		nilRec.Phase(PhaseHash, 0, 15)
		nilRec.BankPhase(PhaseService, 2, 15, 40)
		nilRec.Op(OpCRC)
		nilRec.End(100)
		nilRec.Ledger().RecordWrite(CauseDemand, 0, 1)
	}); allocs != 0 {
		t.Fatalf("nil recorder: %v allocs/op, want 0", allocs)
	}

	// Sampling at 1/1<<30 never opens a context in this loop: the enabled
	// unsampled path must be allocation-free too.
	for _, capture := range []bool{false, true} {
		rec := NewRecorder(1<<30, 7)
		if capture {
			rec.CaptureSpans(0)
		}
		led := rec.Ledger()
		led.RecordWrite(CauseDemand, 7, 1) // pre-grow the bank slice
		if allocs := testing.AllocsPerRun(1000, func() {
			rec.Begin(KindWrite, 0, 1, 0)
			rec.Phase(PhaseHash, 0, 15)
			rec.BankPhase(PhaseService, 2, 15, 40)
			rec.Op(OpCRC)
			rec.End(100)
			led.RecordWrite(CauseDemand, 3, 1)
		}); allocs != 0 {
			t.Fatalf("unsampled recorder (capture %v): %v allocs/op, want 0", capture, allocs)
		}
	}
}

// TestTracerSpans checks span capture is fed by the same calls as the
// aggregates: a sampled request's phases land on their phase's (or bank's)
// track and the request itself on its thread's track, while capture leaves
// the report untouched.
func TestTracerSpans(t *testing.T) {
	run := func(capture bool) *Recorder {
		r := NewRecorder(1, 0)
		if capture {
			r.CaptureSpans(0)
		}
		r.Begin(KindWrite, 2, 5, 0)
		r.Phase(PhaseHash, 0, 15)
		r.BankPhase(PhaseService, 3, 15, 90)
		r.End(100)
		return r
	}
	off, on := run(false), run(true)
	if off.Capturing() || off.Captured() != 0 {
		t.Fatal("capture off, spans kept")
	}
	if !on.Capturing() || on.Captured() != 3 {
		t.Fatalf("%d spans, want hash + service + request", on.Captured())
	}
	want := []span{
		{name: "hash", track: phaseTrack(PhaseHash), start: 0, dur: 15, addr: 5},
		{name: "bank-service", track: bankTrack(3), start: 15, dur: 75, addr: 5},
		{name: "write", track: requestTrack(2), start: 0, dur: 100, addr: 5},
	}
	for i, s := range on.spans {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
	var a, b bytes.Buffer
	if err := off.WriteFolded(&a); err != nil {
		t.Fatal(err)
	}
	if err := on.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("capture changed the aggregates:\n%s\nvs\n%s", a.String(), b.String())
	}
}

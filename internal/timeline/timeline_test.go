package timeline

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dewrite/internal/units"
)

// countingSampler stamps each epoch with cumulative values derived from the
// boundary so tests can verify slot stamping and delta derivation.
type countingSampler struct{ calls int }

func (s *countingSampler) SampleEpoch(e *Epoch, now units.Time) {
	s.calls++
	e.Writes = e.Requests
	e.DupEliminated = e.Requests / 2
	e.EnergyPJ = float64(e.Requests) * 10
	e.NumBanks = 4
	e.BanksBusy = 2
	e.BankWear = append(e.BankWear, e.Requests, e.Requests*2)
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Tick(0, 1, nil)
	c.Finish(0, 1, nil)
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Fatal("nil collector has state")
	}
	if c.Report() != nil {
		t.Fatal("nil collector returned a report")
	}
	if c.Every() != 0 {
		t.Fatal("nil collector has a period")
	}
}

func TestByRequestsBoundaries(t *testing.T) {
	c := NewByRequests(10)
	s := &countingSampler{}
	for req := uint64(1); req <= 35; req++ {
		c.Tick(units.Time(req*100), req, s)
	}
	if c.closed != 3 {
		t.Fatalf("closed = %d, want 3", c.closed)
	}
	c.Finish(units.Time(3500), 35, s)
	if c.closed != 4 {
		t.Fatalf("after Finish closed = %d, want 4", c.closed)
	}
	eps := c.Report().Epochs
	wantReq := []uint64{10, 20, 30, 35}
	for i, e := range eps {
		if e.Requests != wantReq[i] {
			t.Errorf("epoch %d Requests = %d, want %d", i, e.Requests, wantReq[i])
		}
		if e.Epoch != uint64(i) {
			t.Errorf("epoch %d Index = %d", i, e.Epoch)
		}
		if e.Writes != e.Requests {
			t.Errorf("epoch %d sampler did not run", i)
		}
	}
	// Finish again is a no-op: the last epoch already covers request 35.
	c.Finish(units.Time(3500), 35, s)
	if c.closed != 4 {
		t.Fatalf("double Finish closed an extra epoch: %d", c.closed)
	}
}

func TestFinishCoincidingBoundary(t *testing.T) {
	c := NewByRequests(10)
	for req := uint64(1); req <= 20; req++ {
		c.Tick(units.Time(req), req, nil)
	}
	c.Finish(units.Time(20), 20, nil)
	if c.closed != 2 {
		t.Fatalf("closed = %d, want 2 (final boundary coincided)", c.closed)
	}
}

func TestFinishEmptyRun(t *testing.T) {
	c := NewByRequests(10)
	c.Finish(0, 0, nil)
	if c.closed != 0 {
		t.Fatal("Finish closed an epoch on an empty run")
	}
}

func TestRingWrapAndReuse(t *testing.T) {
	c := NewByRequests(1)
	s := &countingSampler{}
	const n = DefaultMaxEpochs + 7
	for req := uint64(1); req <= n; req++ {
		c.Tick(units.Time(req), req, s)
	}
	if c.closed != n {
		t.Fatalf("closed = %d", c.closed)
	}
	if c.Len() != DefaultMaxEpochs {
		t.Fatalf("len = %d, want ring cap %d", c.Len(), DefaultMaxEpochs)
	}
	if c.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", c.Dropped())
	}
	eps := c.Report().Epochs
	for i, e := range eps {
		if want := uint64(8 + i); e.Requests != want {
			t.Errorf("held epoch %d Requests = %d, want %d", i, e.Requests, want)
		}
		// Slot reuse must not leak the prior occupant's BankWear.
		if len(e.BankWear) != 2 {
			t.Errorf("held epoch %d BankWear len = %d, want 2", i, len(e.BankWear))
		}
	}
}

func TestOnEpochHook(t *testing.T) {
	c := NewByRequests(5)
	var seen []uint64
	c.OnEpoch = func(e *Epoch) { seen = append(seen, e.Requests) }
	for req := uint64(1); req <= 12; req++ {
		c.Tick(units.Time(req), req, nil)
	}
	c.Finish(units.Time(12), 12, nil)
	if len(seen) != 3 || seen[0] != 5 || seen[1] != 10 || seen[2] != 12 {
		t.Fatalf("OnEpoch saw %v", seen)
	}
}

func TestDist(t *testing.T) {
	max, mean, gini, cov := Dist(nil)
	if max != 0 || mean != 0 || gini != 0 || cov != 0 {
		t.Fatal("empty Dist not all zero")
	}
	max, mean, gini, cov = Dist([]uint64{7})
	if max != 7 || mean != 7 || gini != 0 || cov != 0 {
		t.Fatalf("single-value Dist = %d %v %v %v", max, mean, gini, cov)
	}
	// Perfectly even distribution: Gini and CoV are zero.
	max, mean, gini, cov = Dist([]uint64{5, 5, 5, 5})
	if max != 5 || mean != 5 || gini != 0 || cov != 0 {
		t.Fatalf("uniform Dist = %d %v %v %v", max, mean, gini, cov)
	}
	// All wear on one of n lines: Gini = (n-1)/n, known closed form.
	max, mean, gini, cov = Dist([]uint64{0, 0, 0, 8})
	if max != 8 || mean != 2 {
		t.Fatalf("concentrated Dist max/mean = %d %v", max, mean)
	}
	if math.Abs(gini-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %v, want 0.75", gini)
	}
	wantCoV := math.Sqrt(3) // stddev of {0,0,0,8} is 2*sqrt(3), mean 2
	if math.Abs(cov-wantCoV) > 1e-12 {
		t.Fatalf("concentrated CoV = %v, want %v", cov, wantCoV)
	}
	// Known hand-computed case: {1,2,3,4} → Gini = 0.25.
	_, mean, gini, _ = Dist([]uint64{4, 2, 1, 3})
	if mean != 2.5 || math.Abs(gini-0.25) > 1e-12 {
		t.Fatalf("1..4 Dist mean=%v gini=%v", mean, gini)
	}
	// All-zero wear: no division by zero.
	max, mean, gini, cov = Dist([]uint64{0, 0, 0})
	if max != 0 || mean != 0 || gini != 0 || cov != 0 {
		t.Fatal("all-zero Dist not all zero")
	}
}

func TestReportDeltas(t *testing.T) {
	c := NewByRequests(10)
	s := &countingSampler{}
	for req := uint64(1); req <= 30; req++ {
		c.Tick(units.Time(req*100), req, s)
	}
	r := c.Report()
	if r.EpochBy != "requests" || r.Every != 10 || r.Dropped != 0 {
		t.Fatalf("report header %+v", r)
	}
	if len(r.Epochs) != 3 {
		t.Fatalf("report epochs = %d", len(r.Epochs))
	}
	for i, rec := range r.Epochs {
		// Sampler sets DupEliminated = Requests/2, so every epoch's delta
		// ratio is 0.5 and the energy share is a constant 100 pJ.
		if math.Abs(rec.DupRatio-0.5) > 1e-12 {
			t.Errorf("epoch %d DupRatio = %v", i, rec.DupRatio)
		}
		if math.Abs(rec.EpochPJ-100) > 1e-9 {
			t.Errorf("epoch %d EpochPJ = %v", i, rec.EpochPJ)
		}
		if math.Abs(rec.Occupancy-0.5) > 1e-12 {
			t.Errorf("epoch %d Occupancy = %v", i, rec.Occupancy)
		}
		if len(rec.BankWear) != 2 {
			t.Errorf("epoch %d BankWear missing", i)
		}
	}
	// Report must survive JSON round-trip.
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Epochs) != 3 || back.Epochs[2].Requests != 30 {
		t.Fatalf("round trip lost epochs: %+v", back)
	}
}

func TestCSVAndHeatmap(t *testing.T) {
	c := NewByRequests(10)
	s := &countingSampler{}
	for req := uint64(1); req <= 25; req++ {
		c.Tick(units.Time(req*100), req, s)
	}
	c.Finish(units.Time(2500), 25, s)
	r := c.Report()

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("CSV rows = %d, want header+3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "epoch,end_ps,requests,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(csvHeader) {
			t.Fatalf("CSV row has %d fields, want %d: %q", got, len(csvHeader), line)
		}
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("CSV export not deterministic")
	}

	var hm bytes.Buffer
	if err := r.WriteWearHeatmapCSV(&hm); err != nil {
		t.Fatal(err)
	}
	hlines := strings.Split(strings.TrimSpace(hm.String()), "\n")
	if len(hlines) != 1+3 {
		t.Fatalf("heatmap rows = %d", len(hlines))
	}
	if hlines[0] != "epoch,end_ps,bank0,bank1" {
		t.Fatalf("heatmap header = %q", hlines[0])
	}
}

func TestNilReportWriters(t *testing.T) {
	var r *Report
	if err := r.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("nil report WriteCSV did not error")
	}
	if err := r.WriteWearHeatmapCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("nil report heatmap did not error")
	}
}

func TestSteadyStateAllocs(t *testing.T) {
	c := NewByRequests(1)
	s := &countingSampler{}
	// Warm the ring past its capacity so every further close reuses slots.
	var req uint64
	for ; req <= DefaultMaxEpochs+100; req++ {
		c.Tick(units.Time(req), req, s)
	}
	avg := testing.AllocsPerRun(200, func() {
		req++
		c.Tick(units.Time(req), req, s)
	})
	if avg > 0.05 {
		t.Fatalf("steady-state Tick allocates %.2f allocs/op", avg)
	}
}

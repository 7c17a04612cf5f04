package chaos

import "testing"

// TestPlanDeterministic pins the package's contract: two plans with the same
// seed agree on every decision, regardless of the order the questions are
// asked in (decisions are pure functions of ordinals, not of call history).
func TestPlanDeterministic(t *testing.T) {
	a := Default(7)
	b := Default(7)

	// Ask b in reverse order to prove decisions are memoryless.
	type reset struct {
		after uint64
		ok    bool
	}
	const n = 512
	var wantReset [n]reset
	var wantSlow [n]uint64
	for i := uint64(0); i < n; i++ {
		wantReset[i].after, wantReset[i].ok = a.ConnReset(i)
		wantSlow[i] = a.ReadDelayNs(i)
	}
	for i := int64(n - 1); i >= 0; i-- {
		after, ok := b.ConnReset(uint64(i))
		if after != wantReset[i].after || ok != wantReset[i].ok {
			t.Fatalf("ConnReset(%d) differs across plans: (%d,%v) vs (%d,%v)",
				i, after, ok, wantReset[i].after, wantReset[i].ok)
		}
		if got := b.ReadDelayNs(uint64(i)); got != wantSlow[i] {
			t.Fatalf("ReadDelayNs(%d) = %d, want %d", i, got, wantSlow[i])
		}
	}
	for shard := 0; shard < 4; shard++ {
		for ord := uint64(0); ord < 2000; ord++ {
			if a.ShardStallNs(shard, ord) != b.ShardStallNs(shard, ord) {
				t.Fatalf("ShardStallNs(%d,%d) differs across identical plans", shard, ord)
			}
		}
	}
	for gen := uint64(0); gen < 64; gen++ {
		aAfter, aOK := a.SnapshotAbort(gen, 8)
		bAfter, bOK := b.SnapshotAbort(gen, 8)
		if aAfter != bAfter || aOK != bOK {
			t.Fatalf("SnapshotAbort(%d) differs across identical plans", gen)
		}
	}
}

// TestPlanSeedsDiffer: distinct seeds must not replay the same fault
// schedule (else a "new seed" soak re-tests the old one).
func TestPlanSeedsDiffer(t *testing.T) {
	a, b := Default(1), Default(2)
	same := true
	for i := uint64(0); i < 256 && same; i++ {
		aa, aok := a.ConnReset(i)
		ba, bok := b.ConnReset(i)
		same = aa == ba && aok == bok
	}
	if same {
		t.Fatal("plans with different seeds produced identical reset schedules")
	}
}

// TestPlanRates: probability 0 never fires, probability 1 always fires, and
// the default rates fire at plausible frequencies.
func TestPlanRates(t *testing.T) {
	off := &Plan{Seed: 3}
	for i := uint64(0); i < 200; i++ {
		if _, ok := off.ConnReset(i); ok {
			t.Fatal("zero-rate plan reset a connection")
		}
		if off.ReadDelayNs(i) != 0 || off.ShardStallNs(0, i) != 0 {
			t.Fatal("zero-rate plan injected a delay")
		}
		if _, ok := off.SnapshotAbort(i, 4); ok {
			t.Fatal("zero-rate plan aborted a snapshot")
		}
	}

	always := &Plan{Seed: 3, ConnResetRate: 1, ConnResetMaxFrames: 10, SlowReadRate: 1, SlowReadNs: 5, SnapshotAbortRate: 1}
	for i := uint64(0); i < 100; i++ {
		after, ok := always.ConnReset(i)
		if !ok || after < 1 || after > 10 {
			t.Fatalf("ConnReset at rate 1: (%d,%v)", after, ok)
		}
		if always.ReadDelayNs(i) != 5 {
			t.Fatal("slow read at rate 1 did not fire")
		}
		if after, ok := always.SnapshotAbort(i, 4); !ok || after < 0 || after >= 4 {
			t.Fatalf("SnapshotAbort at rate 1: (%d,%v)", after, ok)
		}
	}

	def := Default(11)
	resets := 0
	for i := uint64(0); i < 1000; i++ {
		if _, ok := def.ConnReset(i); ok {
			resets++
		}
	}
	// Rate 0.25 over 1000 draws: a [150, 350] window is ~8 sigma.
	if resets < 150 || resets > 350 {
		t.Fatalf("default reset rate fired %d/1000 times, want ~250", resets)
	}
}

// TestNilPlanDisabled: the nil plan is the documented "chaos off" state.
func TestNilPlanDisabled(t *testing.T) {
	var p *Plan
	if _, ok := p.ConnReset(1); ok {
		t.Fatal("nil plan reset")
	}
	if p.ReadDelayNs(1) != 0 || p.ShardStallNs(1, 1) != 0 {
		t.Fatal("nil plan delayed")
	}
	if _, ok := p.SnapshotAbort(1, 4); ok {
		t.Fatal("nil plan aborted")
	}
}

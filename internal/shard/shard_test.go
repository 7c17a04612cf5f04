package shard

import (
	"fmt"
	"sync"
	"testing"

	"dewrite/internal/config"
	"dewrite/internal/rng"
)

func TestRouterRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		r := NewRouter(n)
		for addr := uint64(0); addr < 1000; addr++ {
			s, l := r.ShardOf(addr), r.Local(addr)
			if s < 0 || s >= n {
				t.Fatalf("n=%d addr=%d: shard %d out of range", n, addr, s)
			}
			if got := r.Global(s, l); got != addr {
				t.Fatalf("n=%d addr=%d: Global(%d, %d) = %d", n, addr, s, l, got)
			}
		}
	}
}

func TestRouterLinesForPartitions(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8} {
		for _, total := range []uint64{1, 5, 64, 1000, 1 << 16} {
			r := NewRouter(n)
			// Count by brute force and compare.
			counts := make([]uint64, n)
			for addr := uint64(0); addr < total; addr++ {
				counts[r.ShardOf(addr)]++
			}
			var sum uint64
			for s := 0; s < n; s++ {
				got := r.LinesFor(s, total)
				want := counts[s]
				if want == 0 {
					want = 1 // floor: every shard owns at least one line
				}
				if got != want {
					t.Fatalf("n=%d total=%d shard=%d: LinesFor = %d, want %d", n, total, s, got, want)
				}
				sum += counts[s]
			}
			if sum != total {
				t.Fatalf("n=%d total=%d: partition sums to %d", n, total, sum)
			}
			// Local addresses must stay below the shard's line count.
			for addr := uint64(0); addr < total; addr++ {
				s := r.ShardOf(addr)
				if l := r.Local(addr); l >= r.LinesFor(s, total) {
					t.Fatalf("n=%d total=%d addr=%d: local %d >= LinesFor(%d)=%d",
						n, total, addr, l, s, r.LinesFor(s, total))
				}
			}
		}
	}
}

// TestBankSlice: each shard gets an equal slice of the device's banks on one
// rank, at least one bank however many shards there are.
func TestBankSlice(t *testing.T) {
	cfg := config.Default()
	cfg.NVM.Ranks, cfg.NVM.BanksPerRank = 2, 4
	for _, tc := range []struct{ n, banks int }{{1, 8}, {2, 4}, {3, 2}, {8, 1}, {16, 1}} {
		got := BankSlice(cfg, tc.n)
		if got.NVM.Ranks != 1 || got.NVM.BanksPerRank != tc.banks {
			t.Errorf("%d shards: %d ranks x %d banks, want 1 x %d", tc.n, got.NVM.Ranks, got.NVM.BanksPerRank, tc.banks)
		}
		if got.Timing != cfg.Timing || got.Dedup != cfg.Dedup {
			t.Errorf("%d shards: the slice changed more than the geometry", tc.n)
		}
	}
}

func TestDirectoryVisibilityAtBarrier(t *testing.T) {
	d := NewDirectory(4)
	d.Publish(1, 0xdead, +1)
	d.Publish(2, 0xdead, +1)
	d.Publish(3, 0xbeef, +1)

	// Nothing visible before the barrier.
	if got := d.GlobalRefs(0xdead); got != 0 {
		t.Fatalf("pre-barrier GlobalRefs = %d, want 0", got)
	}
	if d.HeldElsewhere(0xdead, 0) {
		t.Fatal("pre-barrier HeldElsewhere true")
	}

	d.Advance()
	if got := d.GlobalRefs(0xdead); got != 2 {
		t.Fatalf("GlobalRefs(dead) = %d, want 2", got)
	}
	if got := d.GlobalRefs(0xbeef); got != 1 {
		t.Fatalf("GlobalRefs(beef) = %d, want 1", got)
	}
	if !d.HeldElsewhere(0xdead, 0) {
		t.Fatal("HeldElsewhere(dead, 0) = false")
	}
	if !d.HeldElsewhere(0xdead, 1) {
		t.Fatal("HeldElsewhere(dead, 1) = false: shard 2 also holds it")
	}
	if d.HeldElsewhere(0xbeef, 3) {
		t.Fatal("HeldElsewhere(beef, 3) = true: only shard 3 holds it")
	}

	// Removals fold in the same way; a fingerprint whose counts all reach
	// zero leaves the directory entirely.
	d.Publish(1, 0xdead, -1)
	d.Publish(2, 0xdead, -1)
	d.Publish(3, 0xbeef, -1)
	d.Advance()
	if got := d.GlobalRefs(0xdead); got != 0 {
		t.Fatalf("post-removal GlobalRefs = %d, want 0", got)
	}
	st := d.Snapshot()
	if st.Fingerprints != 0 || st.Locations != 0 {
		t.Fatalf("post-removal Snapshot = %+v, want empty", st)
	}
	if st.Advances != 2 {
		t.Fatalf("Advances = %d, want 2", st.Advances)
	}
}

func TestDirectorySnapshotShared(t *testing.T) {
	d := NewDirectory(3)
	d.Publish(0, 1, +1)
	d.Publish(1, 1, +1) // shared across shards 0 and 1
	d.Publish(2, 2, +1)
	d.Publish(2, 2, +1) // two locations, one shard: not shared
	d.Advance()
	st := d.Snapshot()
	if st.Fingerprints != 2 || st.Locations != 4 || st.Shared != 1 {
		t.Fatalf("Snapshot = %+v, want 2 fingerprints, 4 locations, 1 shared", st)
	}
}

func TestDirectoryNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on below-zero fingerprint count")
		}
	}()
	d := NewDirectory(2)
	d.Publish(0, 7, -1)
	d.Advance()
}

// TestDirectoryDeterministicUnderConcurrency drives the epoch protocol the
// sharded runner uses — concurrent per-shard publishes and frozen-generation
// reads inside an epoch, Advance at the barrier — and checks the resulting
// generations are identical however the goroutines interleave. Run with
// -race this doubles as the soak for the striped-lock discipline.
func TestDirectoryDeterministicUnderConcurrency(t *testing.T) {
	const (
		shards = 8
		epochs = 20
		ops    = 400
	)
	run := func() Stats {
		d := NewDirectory(shards)
		for e := 0; e < epochs; e++ {
			var wg sync.WaitGroup
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					// Per-(epoch, shard) seed: every run publishes the same
					// multiset of deltas regardless of interleaving.
					r := rng.New(uint64(e*shards + s + 1))
					for i := 0; i < ops; i++ {
						h := uint32(r.Uint64n(512))
						if r.Uint64n(4) == 0 && d.GlobalRefs(h) > 0 {
							// Reads of the frozen generation race nothing.
							_ = d.HeldElsewhere(h, s)
						}
						d.Publish(s, h, +1)
						if i%3 == 0 {
							d.Publish(s, h, -1)
						}
					}
				}(s)
			}
			wg.Wait() // barrier
			d.Advance()
		}
		return d.Snapshot()
	}

	first := run()
	if first.Fingerprints == 0 || first.Locations == 0 {
		t.Fatalf("soak produced empty directory: %+v", first)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i+2, got, first)
		}
	}
}

func TestDirectoryStripeSpread(t *testing.T) {
	// Sequential fingerprints (the truncated-hash regime) must not pile into
	// one stripe.
	d := NewDirectory(1)
	used := make(map[*stripe]bool)
	for h := uint32(0); h < 256; h++ {
		used[d.stripeOf(h)] = true
	}
	if len(used) < numStripes/2 {
		t.Fatalf("256 sequential fingerprints landed on only %d/%d stripes", len(used), numStripes)
	}
}

func BenchmarkDirectoryPublish(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := NewDirectory(shards)
			b.RunParallel(func(pb *testing.PB) {
				r := rng.New(99)
				h := uint32(r.Uint64n(1 << 20))
				for pb.Next() {
					d.Publish(0, h, +1)
					h++
				}
			})
		})
	}
}

// TestDirectoryEpochPublishes: per-shard Publish counts fold at each
// Advance — EpochPublishes reports the epoch just closed, resets for the
// next one, and returns a copy.
func TestDirectoryEpochPublishes(t *testing.T) {
	d := NewDirectory(3)

	if got := d.EpochPublishes(); len(got) != 3 {
		t.Fatalf("EpochPublishes len %d, want 3", len(got))
	} else {
		for i, n := range got {
			if n != 0 {
				t.Fatalf("fresh directory reports %d publishes on shard %d", n, i)
			}
		}
	}

	d.Publish(0, 0x10, +1)
	d.Publish(0, 0x20, +1)
	d.Publish(2, 0x10, +1)
	d.Advance()

	got := d.EpochPublishes()
	want := []uint64{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch 1 publishes %v, want %v", got, want)
		}
	}
	got[0] = 99 // must be a copy
	if d.EpochPublishes()[0] != 2 {
		t.Fatal("EpochPublishes returned its internal slice, not a copy")
	}

	// The next epoch starts from zero: one publish on shard 1 only.
	d.Publish(1, 0x30, +1)
	d.Advance()
	got = d.EpochPublishes()
	want = []uint64{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch 2 publishes %v, want %v", got, want)
		}
	}
}

// scanStats is the census by brute force over the frozen maps, the scan
// Snapshot made before Advance kept the census current.
func scanStats(d *Directory) Stats {
	st := Stats{Advances: d.advances}
	for i := range d.stripes {
		for _, counts := range d.stripes[i].frozen {
			st.Fingerprints++
			holders := 0
			for _, c := range counts {
				st.Locations += uint64(c)
				if c > 0 {
					holders++
				}
			}
			if holders > 1 {
				st.Shared++
			}
		}
	}
	return st
}

// TestDirectoryCensusMatchesScan runs random publish/advance programs over
// a few fingerprints, so entries appear, become shared, drain and return.
// After every Advance the census must equal a scan of the frozen maps.
func TestDirectoryCensusMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		d := NewDirectory(shards)
		src := rng.New(uint64(shards))
		// live[h][s] is the count shard s will hold for fingerprint h once
		// the pending deltas fold, so a removal never drives it negative.
		live := make(map[uint32][]int, 24)
		for step := 0; step < 400; step++ {
			for n := src.Intn(12); n > 0; n-- {
				h := uint32(src.Uint64n(24)) * 0x9e3779b1
				s := src.Intn(shards)
				if live[h] == nil {
					live[h] = make([]int, shards)
				}
				delta := 1
				if live[h][s] > 0 && src.Bool(0.45) {
					delta = -1
				}
				live[h][s] += delta
				d.Publish(s, h, delta)
			}
			d.Advance()
			if got, want := d.Snapshot(), scanStats(d); got != want {
				t.Fatalf("shards=%d step %d: Snapshot = %+v, scan = %+v", shards, step, got, want)
			}
		}
	}
}

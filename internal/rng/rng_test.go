package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestReseedRestoresStream(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 1000, 1 << 32} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(17)
	const p, draws = 0.25, 200000
	g := NewGeometric(p)
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(g.Draw(s))
	}
	mean := sum / draws
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > want*0.05 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
	if NewGeometric(1).Draw(s) != 0 {
		t.Fatal("Geometric(1) != 0")
	}
}

// geometricPerCall is the per-call form Geometric replaced, which computed
// log(1-p) on every draw.
func geometricPerCall(s *Source, p float64) uint64 {
	if p >= 1 {
		return 0
	}
	u := s.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return uint64(math.Log(u) / math.Log(1-p))
}

// TestGeometricMatchesPerCallForm: holding log(1-p) changes no draw. A
// million draws at a gap probability the profiles use (MemGap 25), and
// fewer near the ends of (0, 1], equal the per-call form's from an equal
// source, and both sources stay in step (p = 1 takes no random number).
func TestGeometricMatchesPerCallForm(t *testing.T) {
	for _, tc := range []struct {
		p     float64
		draws int
	}{{1.0 / 26, 1_000_000}, {1e-6, 100_000}, {0.999, 100_000}, {1, 1000}} {
		a, b := New(23), New(23)
		g := NewGeometric(tc.p)
		for i := 0; i < tc.draws; i++ {
			if got, want := g.Draw(a), geometricPerCall(b, tc.p); got != want {
				t.Fatalf("p=%v draw %d: %d, per-call form %d", tc.p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: sources out of step after %d draws", tc.p, tc.draws)
		}
	}
}

func TestFill(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 256} {
		b := make([]byte, n)
		s.Fill(b)
		if n >= 16 {
			allZero := true
			for _, x := range b {
				if x != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Fill(%d) produced all zeros", n)
			}
		}
	}
}

func TestFillDeterministic(t *testing.T) {
	a, b := New(23), New(23)
	ba, bb := make([]byte, 100), make([]byte, 100)
	a.Fill(ba)
	b.Fill(bb)
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("Fill diverged at byte %d", i)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	const n, draws = 1000, 100000
	lowHits := 0
	for i := 0; i < draws; i++ {
		if s.Zipf(n, 0.9) < n/10 {
			lowHits++
		}
	}
	// With strong skew, far more than 10% of draws land in the lowest decile.
	if frac := float64(lowHits) / draws; frac < 0.5 {
		t.Fatalf("Zipf(0.9) lowest-decile mass = %v, want > 0.5", frac)
	}
}

func TestZipfBoundsProperty(t *testing.T) {
	s := New(37)
	f := func(nRaw uint16, thetaRaw uint8) bool {
		n := uint64(nRaw)%1000 + 1
		theta := float64(thetaRaw%100) / 100
		v := s.Zipf(n, theta)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

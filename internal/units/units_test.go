package units

import (
	"testing"
	"testing/quick"
)

func TestDurationConstants(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Second != 1_000_000_000_000 {
		t.Fatalf("Second = %d ps, want 1e12", Second)
	}
}

func TestTimeAddSub(t *testing.T) {
	var t0 Time = 100
	t1 := t0.Add(50 * Nanosecond)
	if got := t1.Sub(t0); got != 50*Nanosecond {
		t.Fatalf("Sub = %v, want 50ns", got)
	}
}

func TestSubPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	Time(1).Sub(Time(2))
}

func TestMaxMin(t *testing.T) {
	if Max(3, 7) != 7 || Max(7, 3) != 7 {
		t.Fatal("Max wrong")
	}
	if Min(3, 7) != 3 || Min(7, 3) != 3 {
		t.Fatal("Min wrong")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0"},
		{500, "500ps"},
		{75 * Nanosecond, "75ns"},
		{1250 * Nanosecond, "1.25us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", uint64(c.d), got, c.want)
		}
	}
}

func TestClock2GHz(t *testing.T) {
	c := NewClock(2_000_000_000)
	if c.Period() != 500*Picosecond {
		t.Fatalf("period = %v, want 500ps", c.Period())
	}
	if c.Cycles(4) != 2*Nanosecond {
		t.Fatalf("Cycles(4) = %v, want 2ns", c.Cycles(4))
	}
	if c.CyclesIn(2*Nanosecond) != 4 {
		t.Fatalf("CyclesIn(2ns) = %d, want 4", c.CyclesIn(2*Nanosecond))
	}
}

func TestClockPanics(t *testing.T) {
	for _, hz := range []uint64{0, 3_000_000_000_000_001} {
		func() {
			defer func() { recover() }()
			NewClock(hz)
			t.Errorf("NewClock(%d) did not panic", hz)
		}()
	}
}

func TestClockRoundTripProperty(t *testing.T) {
	c := NewClock(2_000_000_000)
	f := func(n uint32) bool {
		return c.CyclesIn(c.Cycles(uint64(n))) == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(base uint32, d uint32) bool {
		t0 := Time(base)
		dur := Duration(d)
		return t0.Add(dur).Sub(t0) == dur
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

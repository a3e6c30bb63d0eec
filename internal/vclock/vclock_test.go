package vclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %g, want 0", c.Now())
	}
	c.Advance(1.5)
	c.Advance(0.5)
	if c.Now() != 2.0 {
		t.Errorf("Now() = %g, want 2.0", c.Now())
	}
	c.Advance(0) // zero advance is legal
	if c.Now() != 2.0 {
		t.Errorf("Now() after zero advance = %g, want 2.0", c.Now())
	}
}

func TestClockAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestClockAdvancePanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Advance(NaN) did not panic")
		}
	}()
	New().Advance(math.NaN())
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(5)
	c.AdvanceTo(3) // earlier: no-op
	if c.Now() != 5 {
		t.Errorf("AdvanceTo(3) moved clock to %g, want 5", c.Now())
	}
	c.AdvanceTo(7)
	if c.Now() != 7 {
		t.Errorf("AdvanceTo(7) = %g, want 7", c.Now())
	}
}

func TestAdvanceToPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo(NaN) did not panic")
		}
	}()
	New().AdvanceTo(math.NaN())
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(10)
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset left clock at %g", c.Now())
	}
}

func TestMaxTime(t *testing.T) {
	a, b, c := New(), New(), New()
	a.Advance(1)
	b.Advance(9)
	c.Advance(4)
	if got := MaxTime(a, b, c); got != 9 {
		t.Errorf("MaxTime = %g, want 9", got)
	}
	if got := MaxTime(); got != 0 {
		t.Errorf("MaxTime() of nothing = %g, want 0", got)
	}
}

func TestSyncAll(t *testing.T) {
	a, b := New(), New()
	a.Advance(2)
	b.Advance(5)
	got := SyncAll(1, a, b)
	if got != 6 {
		t.Errorf("SyncAll = %g, want 6", got)
	}
	if a.Now() != 6 || b.Now() != 6 {
		t.Errorf("clocks after SyncAll = %g, %g; want 6, 6", a.Now(), b.Now())
	}
}

func TestSyncAllPanicsOnNegativeExtra(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SyncAll(-1) did not panic")
		}
	}()
	SyncAll(-1, New())
}

func TestSyncAllProperty(t *testing.T) {
	// Property: after SyncAll all clocks agree and equal max+extra.
	f := func(raw []float64, extraRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		extra := math.Abs(extraRaw)
		if math.IsNaN(extra) || math.IsInf(extra, 0) {
			return true
		}
		clocks := make([]*Clock, 0, len(raw))
		max := 0.0
		for _, v := range raw {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			c := New()
			c.Advance(v)
			clocks = append(clocks, c)
			if v > max {
				max = v
			}
		}
		got := SyncAll(extra, clocks...)
		if got != max+extra {
			return false
		}
		for _, c := range clocks {
			if c.Now() != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdvanceScaled(t *testing.T) {
	c := New()
	c.AdvanceScaled(2, 1.5)
	if math.Abs(c.Now()-3) > 1e-12 {
		t.Errorf("AdvanceScaled(2, 1.5): clock = %g, want 3", c.Now())
	}
	c.AdvanceScaled(1, 1)
	if math.Abs(c.Now()-4) > 1e-12 {
		t.Errorf("factor 1 must behave like Advance: clock = %g, want 4", c.Now())
	}
	for _, factor := range []float64{0.5, 0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceScaled with factor %v did not panic", factor)
				}
			}()
			New().AdvanceScaled(1, factor)
		}()
	}
}

package main

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {90, 3.7}, {100, 4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g", got)
	}
}

func TestOpenLoopTiming(t *testing.T) {
	start := time.Unix(1000, 0)
	period := time.Second / openLoopRate
	due := dueTime(start, period, 3)
	if want := start.Add(3 * period); !due.Equal(want) {
		t.Fatalf("due = %v, want %v", due, want)
	}
	// Sent 2ms late, answered 5ms after it was due: the stall before
	// sending is part of the latency.
	lat, late := openLoopTiming(due, due.Add(2*time.Millisecond), due.Add(5*time.Millisecond))
	if lat != 5*time.Millisecond || late != 2*time.Millisecond {
		t.Errorf("late send: latency %v late %v, want 5ms 2ms", lat, late)
	}
	// A send ahead of schedule is on time, and latency still runs from
	// the due time.
	lat, late = openLoopTiming(due, due.Add(-time.Millisecond), due.Add(time.Millisecond))
	if lat != time.Millisecond || late != 0 {
		t.Errorf("early send: latency %v late %v, want 1ms 0", lat, late)
	}
}

package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// rowPayload builds rank r's Update-step buffers for one row-sums
// case: rows of w values with non-negative counts, every uncounted row
// all +0, counted rows holding negative, positive and +0 values. The
// row pattern is shared by all ranks (from seed), the values are the
// rank's own: some rows are counted nowhere, some on one rank only,
// some on a random subset, some everywhere.
func rowPayload(seed int64, size, r, rows, w int) ([]float64, []int64) {
	pattern := rand.New(rand.NewSource(seed))
	vals := rand.New(rand.NewSource(seed*1009 + int64(r) + 1))
	data := make([]float64, rows*w)
	counts := make([]int64, rows)
	for row := 0; row < rows; row++ {
		var counted bool
		switch kind, only := pattern.Intn(4), pattern.Intn(size); kind {
		case 0:
			counted = false
		case 1:
			counted = r == only
		case 2:
			counted = vals.Intn(2) == 0
		default:
			counted = true
		}
		if !counted {
			continue
		}
		counts[row] = int64(1 + vals.Intn(3))
		for j := row * w; j < (row+1)*w; j++ {
			if vals.Intn(8) != 0 {
				data[j] = vals.NormFloat64() * math.Ldexp(1, vals.Intn(20)-10)
			}
		}
	}
	return data, counts
}

// rowSumsRun is everything one allreduce can influence: each rank's
// result and final clock as bit patterns, the trace counters and the
// run error.
type rowSumsRun struct {
	data   [][]uint64
	counts [][]int64
	clocks []uint64
	stats  trace.Snapshot
	err    string
}

// runRowSums runs one row-sums case on a fresh world under driver d,
// through AllReduceRowSums (dense = false) or the dense algorithm it
// selects (dense = true): the ring at or above ringThresholdElems on
// more than two ranks, AllReduceSum below.
func runRowSums(t *testing.T, d Driver, plan *fault.Plan, seed int64, size, rows, w int, dense bool) rowSumsRun {
	t.Helper()
	stats := trace.NewStats()
	wld, err := NewWorld(machine.MustSpec((size+3)/4), stats, size)
	if err != nil {
		t.Fatal(err)
	}
	wld.SetDriver(d)
	if plan != nil {
		wld.SetFaults(fault.MustInjector(*plan))
	}
	out := rowSumsRun{data: make([][]uint64, size), counts: make([][]int64, size)}
	err = wld.Run(func(c *Comm) error {
		r := c.Rank()
		c.Clock().Advance(float64(r%5) * 7e-7)
		data, counts := rowPayload(seed, size, r, rows, w)
		var err error
		switch {
		case !dense:
			err = c.AllReduceRowSums(data, counts, w)
		case len(data)+len(counts) >= ringThresholdElems && size > 2:
			err = c.AllReduceSumRing(data, counts)
		default:
			err = c.AllReduceSum(data, counts)
		}
		bits := make([]uint64, len(data))
		for j, v := range data {
			bits[j] = math.Float64bits(v)
		}
		out.data[r], out.counts[r] = bits, counts
		return err
	})
	if err != nil {
		out.err = err.Error()
	}
	for g := 0; g < size; g++ {
		out.clocks = append(out.clocks, math.Float64bits(wld.clocks[g].Now()))
	}
	out.stats = stats.Snapshot()
	return out
}

// TestAllReduceRowSumsMatchesDense: the row-aware allreduce returns
// the dense algorithm's result bit for bit on every rank, and leaves
// the same virtual clocks and trace counters, with and without
// transient message faults, on both drivers. Comm sizes 1–33 cover
// every binomial tree shape up to two full levels past 16.
func TestAllReduceRowSumsMatchesDense(t *testing.T) {
	msgFaults := &fault.Plan{Seed: 5, MsgFailRate: 0.05, MaxRetries: 64}
	type shape struct{ rows, w int }
	shapes := []shape{{7, 1}, {11, 3}, {5, 1024}}
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for size := 1; size <= 33; size++ {
			for _, sh := range shapes {
				for _, plan := range []*fault.Plan{nil, msgFaults} {
					if plan != nil && size%4 != 1 {
						continue
					}
					seed := int64(size*100 + sh.w)
					got := runRowSums(t, d, plan, seed, size, sh.rows, sh.w, false)
					want := runRowSums(t, d, plan, seed, size, sh.rows, sh.w, true)
					compareRowSums(t, fmt.Sprintf("%v size=%d rows=%d w=%d faults=%v", d, size, sh.rows, sh.w, plan != nil), got, want)
				}
			}
		}
		// At the ring threshold the dense ring runs; two ranks stay
		// on the binomial tree.
		for _, size := range []int{2, 5} {
			got := runRowSums(t, d, nil, 77, size, 64, 1024, false)
			want := runRowSums(t, d, nil, 77, size, 64, 1024, true)
			compareRowSums(t, fmt.Sprintf("%v ring size=%d", d, size), got, want)
		}
	}
}

func compareRowSums(t *testing.T, name string, got, want rowSumsRun) {
	t.Helper()
	if got.err != "" || want.err != "" {
		t.Fatalf("%s: errors %q / dense %q", name, got.err, want.err)
	}
	for r := range got.data {
		for j, b := range got.data[r] {
			if b != want.data[r][j] || b != got.data[0][j] {
				t.Fatalf("%s: rank %d value %d bits %016x, dense %016x, rank 0 %016x",
					name, r, j, b, want.data[r][j], got.data[0][j])
			}
		}
		for j, n := range got.counts[r] {
			if n != want.counts[r][j] || n != got.counts[0][j] {
				t.Fatalf("%s: rank %d count %d = %d, dense %d, rank 0 %d",
					name, r, j, n, want.counts[r][j], got.counts[0][j])
			}
		}
	}
	for g := range got.clocks {
		if got.clocks[g] != want.clocks[g] {
			t.Fatalf("%s: rank %d clock bits %016x, dense %016x", name, g, got.clocks[g], want.clocks[g])
		}
	}
	if fmt.Sprintf("%+v", got.stats) != fmt.Sprintf("%+v", want.stats) {
		t.Fatalf("%s: trace %+v, dense %+v", name, got.stats, want.stats)
	}
}

// TestAllReduceRowSumsRejectsBadShape: data must be exactly
// len(counts) rows of a positive width.
func TestAllReduceRowSumsRejectsBadShape(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		if err := c.AllReduceRowSums(make([]float64, 7), make([]int64, 2), 3); err == nil {
			return fmt.Errorf("7 values accepted as 2 rows of 3")
		}
		if err := c.AllReduceRowSums(nil, nil, 0); err == nil {
			return fmt.Errorf("width 0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllReduceRowSumsCrashMidReduce: a rank that crashes inside the
// row-aware allreduce gives every survivor the same *RankFailure, on
// both drivers and both algorithms. An early crasher is past its crash
// time before its first message; a late one is an inner tree node that
// fail-stops between its children's packets, after part of its
// subtree has already handed over its buffers.
func TestAllReduceRowSumsCrashMidReduce(t *testing.T) {
	const size = 12
	cases := []struct {
		crash int
		late  bool
		rows  int
	}{{0, false, 6}, {5, false, 6}, {11, false, 6}, {4, true, 6}, {8, true, 6}, {3, false, 64}}
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/rank=%d/late=%v/rows=%d", d, tc.crash, tc.late, tc.rows), func(t *testing.T) {
				w := faultyWorld(t, 3, size, fault.Plan{Crashes: []fault.Crash{{CG: tc.crash, At: 1e-9}}})
				w.SetDriver(d)
				fails := make([]*RankFailure, size)
				_ = w.Run(func(c *Comm) error {
					if c.Rank() == tc.crash && !tc.late {
						c.Clock().Advance(2e-6)
					}
					data, counts := rowPayload(9, size, c.Rank(), tc.rows, 1024)
					err := c.AllReduceRowSums(data, counts, 1024)
					var rf *RankFailure
					if errors.As(err, &rf) {
						fails[c.Rank()] = rf
					}
					return err
				})
				var ref *RankFailure
				for r, f := range fails {
					if r == tc.crash {
						continue
					}
					if f == nil {
						t.Fatalf("survivor %d saw no *RankFailure", r)
					}
					if ref == nil {
						ref = f
					}
					if *f != *ref {
						t.Fatalf("survivor %d failure %+v, survivor reference %+v", r, *f, *ref)
					}
				}
				if ref.Rank != tc.crash {
					t.Fatalf("root cause rank %d, want %d", ref.Rank, tc.crash)
				}
				if err := w.RunLive(func(c *Comm) error {
					data, counts := rowPayload(9, size-1, c.Rank(), tc.rows, 1024)
					return c.AllReduceRowSums(data, counts, 1024)
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

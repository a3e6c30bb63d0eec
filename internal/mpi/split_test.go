package mpi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// splitRef is the naive reference partition: the members of color,
// ordered by (key, parent rank), and the index of color among the
// sorted distinct colors.
func splitRef(colors, keys []int, color int) (members []int, colorIdx int) {
	for r, col := range colors {
		if col == color {
			members = append(members, r)
		}
	}
	sort.SliceStable(members, func(i, j int) bool { return keys[members[i]] < keys[members[j]] })
	distinct := map[int]bool{}
	for _, col := range colors {
		distinct[col] = true
	}
	for col := range distinct {
		if col < color {
			colorIdx++
		}
	}
	return members, colorIdx
}

// randomSplitTable draws a (color, key) table of the given size. Shape
// selects the color pattern: 0 random colors from a small set, 1 a
// single color, 2 all-singleton colors, 3 random colors from a large
// (sparse, negative) range. Keys include negatives and duplicates.
func randomSplitTable(rng *rand.Rand, size, shape int) (colors, keys []int) {
	colors = make([]int, size)
	keys = make([]int, size)
	ncol := 1 + rng.Intn(5)
	for r := range colors {
		switch shape {
		case 0:
			colors[r] = rng.Intn(ncol)
		case 1:
			colors[r] = 7
		case 2:
			colors[r] = size - r
		default:
			colors[r] = rng.Intn(1000) - 500
		}
		keys[r] = rng.Intn(2*size+1) - size/2 - 1
		if rng.Intn(4) == 0 {
			keys[r] = 0 // duplicates tie-break by parent rank
		}
	}
	return colors, keys
}

// TestSplitMatchesReference: for random (color, key) tables of sizes
// 1–300 under both drivers, every rank's sub-communicator has the
// reference members, rank, size and the fault key formula's value.
func TestSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{1, 2, 3, 5, 8, 17, 64, 100, 255, 300}
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for _, size := range sizes {
			for shape := 0; shape < 4; shape++ {
				colors, keys := randomSplitTable(rng, size, shape)
				t.Run(fmt.Sprintf("%v/size=%d/shape=%d", d, size, shape), func(t *testing.T) {
					w := world(t, (size+3)/4, size)
					w.SetDriver(d)
					err := w.Run(func(c *Comm) error {
						r := c.Rank()
						sub, err := c.Split(colors[r], keys[r])
						if err != nil {
							return err
						}
						members, colorIdx := splitRef(colors, keys, colors[r])
						if fmt.Sprint(sub.g.members) != fmt.Sprint(members) {
							return fmt.Errorf("rank %d: members %v, want %v", r, sub.g.members, members)
						}
						if sub.Size() != len(members) || members[sub.Rank()] != r || sub.Global() != r {
							return fmt.Errorf("rank %d: sub rank %d of %d", r, sub.Rank(), sub.Size())
						}
						// The world communicator has key 0; the split's
						// all-gather advances seq by two unless it is
						// a one-rank no-op.
						seq := uint64(2)
						if size == 1 {
							seq = 0
						}
						if want := seq*65536 + uint64(colorIdx) + 1; sub.g.key != want {
							return fmt.Errorf("rank %d: key %d, want %d", r, sub.g.key, want)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// splitPin is the outcome of one Split scenario pinned from the
// all-gather implementation: an FNV-64a digest over every rank's clock
// bits and sub-communicator (fault key, rank, size), and the trace
// counters.
type splitPin struct {
	digest       uint64
	netMsgs      int64
	netBytes     int64
	netRetries   int64
	retrySeconds uint64 // float bits
}

// runSplitPin runs a Split with rank-skewed clocks on a fresh world
// and digests the outcome.
func runSplitPin(t *testing.T, d Driver, size int, plan *fault.Plan) splitPin {
	t.Helper()
	stats := trace.NewStats()
	w, err := NewWorld(machine.MustSpec((size+3)/4), stats, size)
	if err != nil {
		t.Fatal(err)
	}
	w.SetDriver(d)
	if plan != nil {
		w.SetFaults(fault.MustInjector(*plan))
	}
	subs := make([][3]uint64, size)
	err = w.Run(func(c *Comm) error {
		r := c.Rank()
		c.Clock().Advance(float64(r%7) * 1.5e-6)
		sub, err := c.Split(r%5, (r*37)%11-5)
		if err != nil {
			return err
		}
		subs[r] = [3]uint64{sub.g.key, uint64(sub.Rank()), uint64(sub.Size())}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for g := 0; g < size; g++ {
		fmt.Fprintf(h, "%016x:%v;", math.Float64bits(w.clocks[g].Now()), subs[g])
	}
	s := stats.Snapshot()
	return splitPin{h.Sum64(), s.NetMessages, s.NetBytes, s.NetRetries, math.Float64bits(s.RetrySeconds)}
}

// TestSplitChargesPinned: Split's virtual clocks, communicator keys and
// trace counters equal the values recorded from the all-gather
// implementation (every rank receiving the full 2P-entry table), with
// and without transient message faults. Sharing the partition instead
// of copying it must not move a single bit.
func TestSplitChargesPinned(t *testing.T) {
	msgFaults := &fault.Plan{Seed: 3, MsgFailRate: 0.05, MaxRetries: 64}
	cases := []struct {
		size int
		plan *fault.Plan
		want splitPin
	}{
		{2, nil, splitPin{0xbc3740f09bbc522b, 2, 24, 0, 0}},
		{3, nil, splitPin{0x75aa57f71edb9af3, 4, 64, 0, 0}},
		{17, nil, splitPin{0xa5c923de9fa04117, 32, 2304, 0, 0}},
		{64, nil, splitPin{0xfdd02e7b698fbeb0, 126, 32760, 0, 0}},
		{17, msgFaults, splitPin{0x6c6e5aa23d696057, 32, 2304, 1, 0x3ecd5d4439fce224}},
		{64, msgFaults, splitPin{0x9717e1e5e5b71cad, 126, 32760, 4, 0x3eec6a10616e7c56}},
		{4096, nil, splitPin{0x75b2dff200968d83, 8190, 134217720, 0, 0}},
	}
	for _, tc := range cases {
		drivers := []Driver{DriverGoroutine, DriverSched}
		if tc.size > 64 {
			if testing.Short() {
				continue
			}
			drivers = []Driver{DriverSched}
		}
		for _, d := range drivers {
			got := runSplitPin(t, d, tc.size, tc.plan)
			if got != tc.want {
				t.Errorf("size %d faults=%v %v: got %#v, want %#v", tc.size, tc.plan != nil, d, got, tc.want)
			}
		}
	}
}

// TestSplitCrashMidSplit: a rank that crashes inside a Split gives
// every survivor the same *RankFailure, and a RunLive epoch splits
// cleanly afterwards. An early crash (the rank's first split message)
// poisons the all-gather before rank 0 builds the partition; a late
// one kills a broadcast forwarder after it has, so part of the
// communicator never reads its entry and a parent Barrier spreads the
// failure to the rest.
func TestSplitCrashMidSplit(t *testing.T) {
	cases := []struct {
		crashCG int
		late    bool
	}{{0, false}, {3, false}, {9, false}, {4, true}, {8, true}}
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/cg=%d/late=%v", d, tc.crashCG, tc.late), func(t *testing.T) {
				const size = 12
				w := faultyWorld(t, 3, size, fault.Plan{Crashes: []fault.Crash{{CG: tc.crashCG, At: 1e-9}}})
				w.SetDriver(d)
				fails := make([]*RankFailure, size)
				_ = w.Run(func(c *Comm) error {
					// An early crasher's clock is already past its crash
					// time; a late one crosses it on the broadcast receive
					// and fail-stops when it forwards.
					if c.Rank() == tc.crashCG && !tc.late {
						c.Clock().Advance(2e-6)
					}
					_, err := c.Split(c.Rank()%3, c.Rank())
					if err == nil && tc.late {
						err = c.Barrier()
					}
					var rf *RankFailure
					if errors.As(err, &rf) {
						fails[c.Rank()] = rf
					}
					return err
				})
				var ref *RankFailure
				for r, f := range fails {
					if r == tc.crashCG {
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
				if ref.Rank != tc.crashCG {
					t.Fatalf("root cause rank %d, want %d", ref.Rank, tc.crashCG)
				}
				if err := w.RunLive(func(c *Comm) error {
					_, err := c.Split(0, -c.Rank())
					return err
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

package mpi

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkAllReduceSum measures the host cost of the functional
// AllReduce across 16 ranks, the dominant collective of the Update
// step (Algorithm 1 line 14).
func BenchmarkAllReduceSum(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 16)
	data := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error {
			buf := make([]float64, len(data))
			copy(buf, data)
			return c.AllReduceSum(buf, nil)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllReduceMinPairs measures the assignment min-reduce of
// Algorithms 2 and 3.
func BenchmarkAllReduceMinPairs(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error {
			vals := make([]float64, 256)
			idxs := make([]int64, 256)
			for j := range vals {
				vals[j] = float64((c.Rank()*31 + j) % 97)
				idxs[j] = int64(c.Rank())
			}
			return c.AllReduceMinPairs(vals, idxs)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarrier measures the dissemination barrier.
func BenchmarkBarrier(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error { return c.Barrier() }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplit measures the host cost of the Level-3 communicator
// setup at the paper's full scale: 4,096 ranks on the DES driver split
// into 32 CG groups of m′ = 128 (color group, key position) and then
// into 128 position communicators (color position, key group), the
// two Splits every Level-3 epoch starts with.
func BenchmarkSplit(b *testing.B) {
	const size, mPrime = 4096, 128
	w := MustWorld(machine.MustSpec(size/4), nil, size)
	w.SetDriver(DriverSched)
	groups := size / mPrime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error {
			group, pos := c.Rank()/mPrime, c.Rank()%mPrime
			if _, err := c.Split(group, pos); err != nil {
				return err
			}
			_, err := c.Split(pos+groups, group)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

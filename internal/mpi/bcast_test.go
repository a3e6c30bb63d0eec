package mpi

import (
	"fmt"
	"testing"
)

// TestBcastBuffersWritableAfterReturn: broadcast hops share one
// read-only snapshot of the root's payload, and allreduce reduce hops
// share the sender's own buffers, so every rank must be free to
// overwrite its buffers the moment AllReduceSum, AllReduceRowSums,
// AllReduceMinPairs or Bcast returns — while slower peers may still be
// forwarding the packet. Run under -race, any write that reaches a
// shared payload is reported.
func TestBcastBuffersWritableAfterReturn(t *testing.T) {
	const size, rounds, n = 13, 20, 64
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		t.Run(d.String(), func(t *testing.T) {
			w := world(t, 4, size)
			w.SetDriver(d)
			err := w.Run(func(c *Comm) error {
				data := make([]float64, n)
				ints := make([]int64, n)
				for round := 0; round < rounds; round++ {
					for j := range data {
						data[j] = float64(c.Rank() + round + j)
						ints[j] = int64(c.Rank() * j)
					}
					if err := c.AllReduceSum(data, ints); err != nil {
						return err
					}
					for j := range data {
						want := float64(size*(round+j) + size*(size-1)/2)
						if data[j] != want || ints[j] != int64(j*size*(size-1)/2) {
							return fmt.Errorf("round %d: allreduce[%d] = %v/%d, want %v", round, j, data[j], ints[j], want)
						}
						data[j], ints[j] = -1, -1
					}
					// Row sums: rows counted on a rotating subset of
					// ranks, the others all +0.
					for row := 0; row < n/4; row++ {
						ints[row] = 0
						if (row+round+c.Rank())%3 == 0 {
							ints[row] = 1
						}
						for j := row * 4; j < (row+1)*4; j++ {
							data[j] = float64(ints[row]) * float64(j+1)
						}
					}
					if err := c.AllReduceRowSums(data, ints[:n/4], 4); err != nil {
						return err
					}
					for row := 0; row < n/4; row++ {
						cnt := int64(0)
						for r := 0; r < size; r++ {
							if (row+round+r)%3 == 0 {
								cnt++
							}
						}
						if ints[row] != cnt || data[row*4+3] != float64(cnt)*float64(row*4+4) {
							return fmt.Errorf("round %d: row sums[%d] = %v/%d, want count %d", round, row, data[row*4+3], ints[row], cnt)
						}
					}
					for j := range data {
						data[j], ints[j] = -3, -3
					}
					for j := range data {
						data[j] = float64((c.Rank()*7 + j + round) % 5)
						ints[j] = int64(c.Rank())
					}
					if err := c.AllReduceMinPairs(data, ints); err != nil {
						return err
					}
					for j := range data {
						if data[j] != 0 {
							return fmt.Errorf("round %d: min-pairs[%d] = %v, want 0", round, j, data[j])
						}
						data[j], ints[j] = -4, -4
					}
					root := round % size
					if c.Rank() == root {
						for j := range data {
							data[j] = float64(round*n + j)
						}
					}
					if err := c.Bcast(root, data, nil); err != nil {
						return err
					}
					for j := range data {
						if data[j] != float64(round*n+j) {
							return fmt.Errorf("round %d: bcast[%d] = %v", round, j, data[j])
						}
						data[j] = -2
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

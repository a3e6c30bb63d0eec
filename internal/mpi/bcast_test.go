package mpi

import (
	"fmt"
	"testing"
)

// TestBcastBuffersWritableAfterReturn: broadcast hops share one
// read-only snapshot of the root's payload, so every rank must be free
// to overwrite its buffers the moment AllReduceSum or Bcast returns —
// while slower peers may still be forwarding the packet. Run under
// -race, any write that reaches a shared payload is reported.
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

package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestUserTagsPerCommunicator: a user tag belongs to its communicator.
// Rank 0 sends tag 5 on A, then on B; rank 1 receives on B first and
// must get B's payload, not the held A packet with the same source and
// tag number.
func TestUserTagsPerCommunicator(t *testing.T) {
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		t.Run(d.String(), func(t *testing.T) {
			w := world(t, 1, 2)
			w.SetDriver(d)
			err := w.Run(func(c *Comm) error {
				a, err := c.Split(0, c.Rank())
				if err != nil {
					return err
				}
				b, err := c.Split(0, c.Rank())
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := a.Send(1, 5, []float64{1}, nil); err != nil {
						return err
					}
					return b.Send(1, 5, []float64{2}, nil)
				}
				for _, want := range []struct {
					on  *Comm
					val float64
				}{{b, 2}, {a, 1}} {
					got, _, err := want.on.Recv(0, 5)
					if err != nil {
						return err
					}
					if len(got) != 1 || got[0] != want.val {
						return fmt.Errorf("received %v, want [%v]", got, want.val)
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

// TestDepth2SiblingsDoNotCrossDeliver: two depth-2 communicators whose
// parents were split 4,094 one-step barriers apart used to get
// communicator ids equal modulo the tag's id field, so a Bcast on one
// delivered the other's payload. Rank 0 broadcasts on AA, then on BB;
// rank 1 receives on BB first.
func TestDepth2SiblingsDoNotCrossDeliver(t *testing.T) {
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		t.Run(d.String(), func(t *testing.T) {
			w := world(t, 1, 2)
			w.SetDriver(d)
			err := w.Run(func(c *Comm) error {
				r := c.Rank()
				a, err := c.Split(0, r)
				if err != nil {
					return err
				}
				for range 4094 {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				b, err := c.Split(0, r)
				if err != nil {
					return err
				}
				aa, err := a.Split(0, r)
				if err != nil {
					return err
				}
				bb, err := b.Split(0, r)
				if err != nil {
					return err
				}
				order := []*Comm{aa, bb}
				if r == 1 {
					order = []*Comm{bb, aa}
				}
				for _, on := range order {
					want := 1.0
					if on == bb {
						want = 2
					}
					buf := []float64{want}
					if r == 1 {
						buf[0] = 0
					}
					if err := on.Bcast(0, buf, nil); err != nil {
						return err
					}
					if buf[0] != want {
						return fmt.Errorf("rank %d received %v on the %v communicator", r, buf[0], want)
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

// TestCousinCommunicatorsKeepTheirPayloads is the randomized alias
// check. After more than 135 RunLive epochs (which pushed depth-1 ids
// past the old 43-bit id field), one epoch nests random splits two deep
// with a random number of barriers between the parents' splits, then
// runs rounds of collectives and user-tag messages on all of them, each
// rank visiting the communicators in its own random order. Every
// payload names the communicator it was sent on, and every receiver
// checks it.
//
// Every communicator orders its members by world rank and broadcasts
// from rank 0, so a rank only ever waits on a lower world rank and no
// visiting order can deadlock.
func TestCousinCommunicatorsKeepTheirPayloads(t *testing.T) {
	const size, epochs, rounds = 8, 140, 6
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", d, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				colors := make([][]int, 4) // per split, per world rank
				for s := range colors {
					colors[s] = make([]int, size)
					for r := range colors[s] {
						colors[s][r] = rng.Intn(3)
					}
				}
				barriers := rng.Intn(40)
				w := world(t, 2, size)
				w.SetDriver(d)
				for range epochs {
					if err := w.RunLive(func(c *Comm) error { return c.Barrier() }); err != nil {
						t.Fatal(err)
					}
				}
				err := w.RunLive(func(c *Comm) error {
					r := c.Rank()
					col := func(s int) int { return colors[s][r] }
					a, err := c.Split(col(0), r)
					if err != nil {
						return err
					}
					for range barriers {
						if err := c.Barrier(); err != nil {
							return err
						}
					}
					b, err := c.Split(col(1), r)
					if err != nil {
						return err
					}
					aa, err := a.Split(col(2), r)
					if err != nil {
						return err
					}
					bb, err := b.Split(col(3), r)
					if err != nil {
						return err
					}
					// label names a communicator identically on all of
					// its members.
					comms := []*Comm{c, a, b, aa, bb}
					labels := []float64{0, float64(100 + col(0)), float64(200 + col(1)),
						float64(300 + 10*col(0) + col(2)), float64(400 + 10*col(1) + col(3))}
					own := rand.New(rand.NewSource(seed*1000 + int64(r)))
					for round := range rounds {
						for _, j := range own.Perm(len(comms)) {
							buf := []float64{labels[j], float64(round)}
							if comms[j].Rank() != 0 {
								buf = []float64{-1, -1}
							}
							if err := comms[j].Bcast(0, buf, nil); err != nil {
								return err
							}
							if buf[0] != labels[j] || buf[1] != float64(round) {
								return fmt.Errorf("round %d: Bcast on communicator %v delivered %v", round, labels[j], buf)
							}
						}
						for j, on := range comms {
							for dst := range on.Size() {
								if dst == on.Rank() {
									continue
								}
								if err := on.Send(dst, 7, []float64{labels[j], float64(round)}, []int64{int64(on.Rank())}); err != nil {
									return err
								}
							}
						}
						for _, j := range own.Perm(len(comms)) {
							on := comms[j]
							for _, src := range own.Perm(on.Size()) {
								if src == on.Rank() {
									continue
								}
								data, ints, err := on.Recv(src, 7)
								if err != nil {
									return err
								}
								if data[0] != labels[j] || data[1] != float64(round) || ints[0] != int64(src) {
									return fmt.Errorf("round %d: Recv from %d on communicator %v delivered %v %v", round, src, labels[j], data, ints)
								}
							}
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
}

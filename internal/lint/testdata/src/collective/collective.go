// Package collective seeds rank-conditional communicator shapes for
// the collective-match rule: lone collectives under rank branches,
// matched Send/Recv pairs, early-exit guards and the switch-based
// stripe-gather form.
package collective

import "repro/internal/mpi"

// LoneBcast broadcasts on the root only; every other rank never enters
// the collective.
func LoneBcast(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return c.Bcast(0, data, nil)
	}
	return nil
}

// PairedSendRecv is the legitimate root-gathers shape: Send on one arm
// matches Recv on the other.
func PairedSendRecv(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		_, _, err := c.Recv(1, 7)
		return err
	} else {
		return c.Send(0, 7, data, nil)
	}
}

// EarlyExitPaired sends from non-roots and returns; the tail is the
// root's arm and holds the matching Recv.
func EarlyExitPaired(c *mpi.Comm, data []float64) error {
	if c.Rank() != 0 {
		return c.Send(0, 9, data, nil)
	}
	_, _, err := c.Recv(1, 9)
	return err
}

// EarlyExitBarrier leaves the root alone in a Barrier: the non-roots
// returned before reaching it.
func EarlyExitBarrier(c *mpi.Comm) error {
	if c.Rank() != 0 {
		return nil
	}
	return c.Barrier()
}

// DerivedRank reaches the branch through a derived local, which the
// value-flow pass tracks back to Rank().
func DerivedRank(c *mpi.Comm, data []float64) error {
	pos := c.Rank() % 4
	if pos == 0 {
		_, err := c.Gather(0, data)
		return err
	}
	return nil
}

// NotRankDependent branches on data, not rank: every rank takes the
// same arm and the collective stays collective.
func NotRankDependent(c *mpi.Comm, n int) error {
	if n > 0 {
		return c.Barrier()
	}
	return nil
}

// SwitchPaired is the stripe-gather shape: the root receives in one
// case, group leaders send in a sibling case.
func SwitchPaired(c *mpi.Comm, group int, data []float64) error {
	switch {
	case c.Rank() == 0:
		_, _, err := c.Recv(1, 3)
		return err
	case group == 0:
		return c.Send(0, 3, data, nil)
	}
	return nil
}

// SwitchLone reduces in one rank case with no sibling partner.
func SwitchLone(c *mpi.Comm, data []float64) error {
	switch {
	case c.Rank() == 0:
		return c.Reduce(0, data, nil)
	default:
		return nil
	}
}

// LoneRowSums runs the Update step's allreduce on the group leaders
// only; the other arm skips it.
func LoneRowSums(c *mpi.Comm, sums []float64, counts []int64, d int) error {
	if c.Rank()%4 == 0 {
		return c.AllReduceRowSums(sums, counts, d)
	} else {
		return nil
	}
}

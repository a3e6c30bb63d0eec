package mpi

// The discrete-event (DES) World driver. The default driver runs one
// live goroutine per rank; this one runs ranks as coroutine tasks of a
// sched.Sim, so a rank blocked in a receive parks on the scheduler's
// deterministic event heap instead of waiting on its sync.Cond. That
// is the whole difference: packets, tags, timestamps, the mailbox,
// poison propagation and the fault plan's crash/straggler/degraded-link
// behaviour are shared code, which is why the two drivers are
// bit-identical (the determinism argument is at the top of fault.go).
//
// Why this driver scales. The only per-rank costs are a parked
// goroutine (one page of stack) and a few words of mailbox state,
// which is what lets a 4,096-rank Figure 6(b) epoch — and 100k-rank
// collective microbenchmarks — run in-process. Under the scheduler's
// serialization the box mutex is never contended.

import (
	"fmt"

	"repro/internal/sched"
)

// Driver selects the World's execution engine.
type Driver int

const (
	// DriverGoroutine is the default: one live goroutine per rank,
	// blocking on a per-rank sync.Cond.
	DriverGoroutine Driver = iota
	// DriverSched runs ranks as coroutine tasks on a deterministic
	// discrete-event scheduler; see this file's package comment.
	DriverSched
)

// String implements fmt.Stringer.
func (d Driver) String() string {
	switch d {
	case DriverGoroutine:
		return "goroutine"
	case DriverSched:
		return "sched"
	default:
		return fmt.Sprintf("Driver(%d)", int(d))
	}
}

// SetDriver selects the execution engine for subsequent Run/RunLive
// calls. It must be called before Run, never concurrently with one;
// results are bit-identical across drivers.
func (w *World) SetDriver(d Driver) { w.driver = d }

// desWorld is the per-epoch state of the DES driver: the scheduler
// and one task per participating rank, indexed by global rank. It
// exists only while runMembersSched is executing.
type desWorld struct {
	sim   *sched.Sim
	tasks []*sched.Task
}

// runMembersSched is runMembers' epoch body under the DES driver: the
// members become scheduler tasks whose initial events fire at their
// current clocks, and one Sim.Run dispatches the whole epoch.
func (w *World) runMembersSched(id uint64, members []int, fn func(c *Comm) error, errs []error) error {
	des := &desWorld{sim: sched.New(), tasks: make([]*sched.Task, w.size)}
	w.des = des
	defer func() { w.des = nil }()

	for i, g := range members {
		des.tasks[g] = des.sim.Spawn(g, w.clocks[g].Now(), func(*sched.Task) {
			errs[i] = w.runRank(id, members, i, fn)
		})
	}
	if err := des.sim.Run(); err != nil {
		// A scheduler deadlock is a protocol bug (mismatched collective,
		// lost wake-up) — surface it with the scheduler's diagnostic
		// rather than hanging the way stuck goroutines would.
		return fmt.Errorf("mpi: sched driver: %w", err)
	}
	if w.obsRec != nil {
		st := des.sim.Stats()
		w.obsRec.AddCounter("sched:dispatches", st.Dispatches)
		w.obsRec.AddCounter("sched:parks", st.Parks)
		w.obsRec.AddCounter("sched:wakes", st.Wakes)
		w.obsRec.MaxCounter("sched:max_queue_depth", uint64(st.MaxQueue))
	}
	return nil
}

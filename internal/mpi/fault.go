package mpi

// Fault machinery of the message-passing substrate. The model is
// fail-stop at message boundaries: a rank whose fault plan schedules a
// crash executes normally until its virtual clock reaches the crash
// time, then stops responding at its next send or receive — the
// granularity at which a real MPI job observes a dead peer. Peers
// detect the failure through a modelled heartbeat: a receive posted
// against a crashed rank completes at crash time plus the plan's
// heartbeat timeout with a typed *RankFailure error instead of
// deadlocking.
//
// Determinism, under either driver. A rank's computation depends only
// on the packets it matches — identified by (src, group, step), where
// the group is the communicator's one shared identity object — their
// timestamps, and its own clock; never on the interleaving of other
// ranks. The goroutine driver realizes one
// dependency-respecting interleaving chosen by the Go runtime, the DES
// driver another chosen by its event heap; both deliver the same
// packets with the same timestamps through the same mailbox, so every
// per-rank float, clock and span is identical (locked by the
// golden-parity suite and TestDriverParity*). Failures keep the
// property: a rank's deposits precede its failure publication in
// program order, deposit and publication both take the world's box
// mutex, and a receiver checks its held buffer before the failure
// flags under that same lock. So whether a receive sees a real message
// or a failure is a pure function of the virtual execution: a real
// match always beats a failure report, whatever the driver.
//
// Mid-collective failure propagates deterministically through two
// mechanisms. First, a live rank that discovers a failure inside a
// collective completes the identical communication pattern with
// poison-marked packets, so every peer still consumes and produces
// exactly its protocol edges (no deadlock, and the collective's tag
// sequence stays synchronized across survivors). Second, a rank whose
// callback returns an error publishes it as its abort for the epoch,
// so any peer still waiting on it wakes and fails over with the same
// root-cause failure instead of blocking.

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// ErrRankFailed identifies a communication that failed because a peer
// rank crashed; errors.Is(err, ErrRankFailed) matches it through
// wrapping.
var ErrRankFailed = errors.New("mpi: rank failed")

// RankFailure describes a detected peer failure: which rank died,
// when, and when the heartbeat detector reported it (the virtual time
// the observing rank's clock is advanced to).
type RankFailure struct {
	// Rank is the failed world rank; CG its core group.
	Rank, CG int
	// CrashedAt is the virtual time of the failure.
	CrashedAt float64
	// DetectedAt is CrashedAt plus the heartbeat timeout.
	DetectedAt float64
}

// Error implements error.
func (f *RankFailure) Error() string {
	return fmt.Sprintf("mpi: rank %d (CG %d) failed at t=%.9fs, detected at t=%.9fs",
		f.Rank, f.CG, f.CrashedAt, f.DetectedAt)
}

// Is matches ErrRankFailed.
func (f *RankFailure) Is(target error) bool { return target == ErrRankFailed }

// ErrCrashed identifies the error a rank's own callback receives when
// the fault plan fail-stops it: the rank must unwind, it is dead.
var ErrCrashed = errors.New("mpi: rank crashed (fail-stop)")

// CrashStop is the self-crash error: the fault plan scheduled this
// rank's fail-stop and its clock has reached the crash time.
type CrashStop struct {
	Rank, CG int
	At       float64
}

// Error implements error.
func (c *CrashStop) Error() string {
	return fmt.Sprintf("mpi: rank %d (CG %d) fail-stop at t=%.9fs", c.Rank, c.CG, c.At)
}

// Is matches ErrCrashed.
func (c *CrashStop) Is(target error) bool { return target == ErrCrashed }

// SetFaults installs a fault injector on the world; it must be called
// before Run. Passing nil removes fault injection. Message transfer
// times then honour the injector's degraded-link windows, transient
// message faults are retried with backoff, and scheduled crashes
// fail-stop their ranks. Either way every rank is alive again.
func (w *World) SetFaults(inj *fault.Injector) {
	w.inj = inj
	w.netAt = nil
	if inj != nil {
		w.netAt = w.net.Degraded(inj)
	}
	w.box.Lock()
	clear(w.crashed)
	w.box.Unlock()
}

// Injector returns the installed fault injector (nil without faults).
func (w *World) Injector() *fault.Injector { return w.inj }

// markCrashed records the fail-stop of a global rank at virtual time
// at. Only the rank itself calls it — a rank decides its own death —
// exactly once; peers blocked on it detect the failure at the
// heartbeat timeout.
func (w *World) markCrashed(g int, at float64) {
	w.publishFailure(g, &RankFailure{
		Rank:       g,
		CG:         w.cgOf[g],
		CrashedAt:  at,
		DetectedAt: at + w.inj.HeartbeatTimeout(),
	}, true)
}

// publishFailure records rank g's failure under box — its fail-stop
// when crash is set, otherwise its callback's abort this epoch — and
// wakes every rank blocked on g at the failure's detection time.
func (w *World) publishFailure(g int, f *RankFailure, crash bool) {
	w.box.Lock()
	if crash {
		w.crashed[g] = f
	} else {
		w.aborted[g] = f
	}
	for r, src := range w.waitSrc {
		if src == g {
			w.wakeLocked(r, f.DetectedAt)
		}
	}
	w.box.Unlock()
}

// Failed returns the sorted global ranks that have fail-stopped so
// far. It is meaningful between Run calls.
func (w *World) Failed() []int {
	w.box.Lock()
	defer w.box.Unlock()
	var out []int
	for g, f := range w.crashed {
		if f != nil {
			out = append(out, g)
		}
	}
	return out
}

// Alive returns the sorted global ranks that have not fail-stopped.
func (w *World) Alive() []int {
	w.box.Lock()
	defer w.box.Unlock()
	out := make([]int, 0, w.size)
	for g, f := range w.crashed {
		if f == nil {
			out = append(out, g)
		}
	}
	return out
}

// Failure returns the failure report of a crashed global rank, nil
// while the rank is alive.
func (w *World) Failure(g int) *RankFailure {
	w.box.Lock()
	defer w.box.Unlock()
	return w.crashed[g]
}

// CheckFailure reports the rank's own scheduled fail-stop once its
// clock has reached the crash time: engines call it from compute loops
// to crash promptly instead of at the next message boundary. The
// returned error wraps ErrCrashed; nil means the rank is alive.
func (c *Comm) CheckFailure() error { return c.checkSelfCrash() }

// checkSelfCrash fail-stops the calling rank when its virtual clock
// has crossed the scheduled crash time of its core group. Called at
// every message boundary.
func (c *Comm) checkSelfCrash() error {
	w := c.w
	if w.inj == nil {
		return nil
	}
	g := c.Global()
	if f := w.Failure(g); f != nil {
		return &CrashStop{Rank: g, CG: w.cgOf[g], At: f.CrashedAt}
	}
	at, ok := w.inj.CrashTime(w.cgOf[g])
	if !ok || c.Clock().Now() < at {
		return nil
	}
	w.markCrashed(g, at)
	return &CrashStop{Rank: g, CG: w.cgOf[g], At: at}
}

// abortFailureFor derives the failure a peer should observe when a
// rank's callback returns err: the root-cause RankFailure when one is
// wrapped, the crash report for a fail-stop, and a synthetic failure
// stamped with the rank's own clock for any other error (so bugs
// surface as errors on every rank instead of deadlocks).
func (w *World) abortFailureFor(g int, err error, now float64) *RankFailure {
	var rf *RankFailure
	if errors.As(err, &rf) {
		return rf
	}
	var cs *CrashStop
	if errors.As(err, &cs) {
		det := cs.At
		if w.inj != nil {
			det += w.inj.HeartbeatTimeout()
		}
		return &RankFailure{Rank: cs.Rank, CG: cs.CG, CrashedAt: cs.At, DetectedAt: det}
	}
	return &RankFailure{Rank: g, CG: w.cgOf[g], CrashedAt: now, DetectedAt: now}
}

// opState accumulates the failure discovered during one collective
// operation. A poisoned rank keeps executing the identical protocol
// edges (sending poison instead of data) so no peer deadlocks and the
// communicator's tag sequence stays synchronized.
type opState struct {
	fail *RankFailure
}

// merge folds a newly observed failure in, keeping a deterministic
// winner (earliest crash, ties to the lowest rank) so every rank that
// observes the same failure set reports the same root cause.
func (st *opState) merge(f *RankFailure) {
	if f == nil {
		return
	}
	if st.fail == nil {
		st.fail = f
		return
	}
	//swlint:ignore float-eq -- exact crash-time tie breaks to the lowest rank for a deterministic root cause
	if f.CrashedAt < st.fail.CrashedAt || (f.CrashedAt == st.fail.CrashedAt && f.Rank < st.fail.Rank) {
		st.fail = f
	}
}

// err returns the collective's outcome: nil, or the merged failure.
func (st *opState) err() error {
	if st.fail == nil {
		return nil
	}
	return st.fail
}

// opSend is the poison-aware protocol send: a clean rank transmits a
// copy of the payload, a poisoned rank transmits the failure marker on
// the same edge. Steps whose sender may write its buffers right after
// sending (public Reduce, gather, scatter, the ring) use it.
func (c *Comm) opSend(st *opState, dst int, tag msgTag, data []float64, ints []int64) error {
	if st.fail != nil {
		return c.sendShared(dst, tag, nil, nil, 0, st.fail)
	}
	return c.sendPacket(dst, tag, data, ints)
}

// opSendShared is opSend without the copy: a clean rank hands over the
// payload itself, charged bytes. Broadcast hops and the allreduce
// reduce phases use it: their senders leave the payload untouched
// until every receiver is done with it.
func (c *Comm) opSendShared(st *opState, dst int, tag msgTag, data []float64, ints []int64, bytes int) error {
	if st.fail != nil {
		return c.sendShared(dst, tag, nil, nil, 0, st.fail)
	}
	return c.sendShared(dst, tag, data, ints, bytes, nil)
}

// opRecv is the poison-aware protocol receive: poison packets and
// detected crashes fold into st (returning nil payloads) while hard
// errors — the caller's own crash — propagate.
func (c *Comm) opRecv(st *opState, src int, tag msgTag) ([]float64, []int64, error) {
	d, i, fail, err := c.recvFull(src, tag)
	if err != nil {
		return nil, nil, err
	}
	if fail != nil {
		st.merge(fail)
		return nil, nil, nil
	}
	return d, i, nil
}

// Package mpi implements the message-passing substrate of the
// simulator: the role MPI plays on the real Sunway TaihuLight. Ranks
// are core groups (each CG's managing processing element drives the
// network), point-to-point messages really move data between rank
// goroutines, and collectives are built from point-to-point messages
// with the classic binomial-tree and dissemination algorithms so that
// message counts, volumes and the emergent critical path match what a
// real MPI library would produce on the two-level fat tree.
//
// Virtual time: every rank owns a vclock.Clock. A message carries the
// sender's clock at completion of the send; the receive completes at
// max(receiver's clock, send time + modelled transfer time), where the
// transfer time comes from the netmodel (intra- vs inter-supernode
// bandwidth and latency).
package mpi

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// packet is one message in flight between ranks. A broadcast packet's
// payload is shared by every rank below its root in the tree (see
// bcastTree), and an allreduce reduce-phase packet carries the
// sender's own buffer (see reduceOp), so received collective payloads
// are read-only. Every other packet (point-to-point, public Reduce,
// gather, scatter, the ring's segments) carries a private copy.
type packet struct {
	src  int // global rank
	tag  uint64
	time float64 // sender clock at send completion
	data []float64
	ints []int64
	fail *RankFailure // non-nil marks a poison packet carrying a failure
}

// World owns the rank set of one simulated job.
type World struct {
	spec  *machine.Spec
	net   *netmodel.Model
	stats *trace.Stats
	size  int
	cgOf  []int // world rank -> global CG index

	// driver selects the execution engine (see sched.go); des is the
	// DES driver's per-epoch state, non-nil only while a sched epoch is
	// dispatching.
	driver Driver
	des    *desWorld

	// The mailbox both drivers share (see fault.go for why it is
	// deterministic). A send deposits its packet into the destination's
	// held buffer; a receive takes its match from there or blocks until
	// a deposit or a failure publication wakes it. waitSrc[g] and
	// waitTag[g] name the (source, tag) rank g is blocked on, waitSrc[g]
	// is -1 while g is not blocked. crashed[g] is rank g's fail-stop
	// report, nil while it lives; aborted[g] is the report of g's
	// callback error in the current epoch. Under the goroutine driver a
	// blocked rank g waits on wake[g], whose L is &box.
	box     sync.Mutex
	held    [][]packet     // guarded by box
	waitSrc []int          // guarded by box
	waitTag []uint64       // guarded by box
	crashed []*RankFailure // guarded by box
	aborted []*RankFailure // guarded by box
	wake    []sync.Cond

	commIDs sync.Mutex
	nextID  uint64 // guarded by commIDs

	// splits holds the partitions Split computes on a parent's rank 0
	// until every member has read its entry (see split.go).
	splitMu sync.Mutex
	splits  map[splitKey]*splitTable // guarded by splitMu

	clocks []*vclock.Clock

	// obsUnits[g] is rank g's span unit, nil when unobserved. Installed
	// before Run and only read by the rank's own goroutine afterwards.
	// obsRec is the recorder they belong to, kept so the DES driver can
	// fold its scheduler counters into the run's profile.
	obsUnits []*obs.Unit
	obsRec   *obs.Recorder

	// Fault injection (see fault.go).
	inj   *fault.Injector
	netAt *netmodel.Model // degraded-link view of net; nil without faults
}

// NewWorld creates a world of size ranks over the deployment spec.
// Rank r is placed on global CG index r, so consecutive ranks are
// physically adjacent (fill nodes, then supernodes), matching the
// paper's placement advice. size must not exceed the number of CGs of
// the deployment. The stats sink may be nil.
func NewWorld(spec *machine.Spec, stats *trace.Stats, size int) (*World, error) {
	return NewWorldPlaced(spec, stats, size, CompactPlacement)
}

// MustWorld is NewWorld that panics on error.
func MustWorld(spec *machine.Spec, stats *trace.Stats, size int) *World {
	w, err := NewWorld(spec, stats, size)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Spec returns the deployment spec.
func (w *World) Spec() *machine.Spec { return w.spec }

// MaxTime returns the latest virtual clock across ranks — the job's
// completion time after Run returns.
func (w *World) MaxTime() float64 { return vclock.MaxTime(w.clocks...) }

// SetObserver attaches a span recorder: rank g records its collectives
// and point-to-point operations as spans on unit "rank/<g>", stamped
// with the rank's virtual clock. Install it before Run, never
// concurrently with one; a nil recorder leaves the world unobserved.
func (w *World) SetObserver(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	w.obsRec = rec
	w.obsUnits = make([]*obs.Unit, w.size)
	for g := range w.obsUnits {
		w.obsUnits[g] = rec.Unit(fmt.Sprintf("rank/%d", g))
	}
}

// ResetClocks zeroes all rank clocks between measured iterations.
func (w *World) ResetClocks() {
	for _, c := range w.clocks {
		c.Reset()
	}
}

// Run executes fn concurrently on every rank and blocks until all
// return. The first non-nil error (lowest rank) is returned. Run may
// be called repeatedly on the same world; clocks persist across calls
// unless ResetClocks is used.
func (w *World) Run(fn func(c *Comm) error) error {
	members := make([]int, w.size)
	for i := range members {
		members[i] = i
	}
	return w.runMembers(0, members, fn)
}

// RunLive executes fn on every surviving rank over a communicator of
// exactly the live ranks, ordered by world rank — the bootstrap
// communicator a recovery epoch re-plans over. Crashed ranks do not
// participate at all. Like Run, the first non-nil error by lowest
// participating rank is returned.
func (w *World) RunLive(fn func(c *Comm) error) error {
	members := w.Alive()
	if len(members) == 0 {
		return fmt.Errorf("mpi: no surviving ranks: %w", ErrRankFailed)
	}
	return w.runMembers(w.newCommID(), members, fn)
}

// runMembers is the shared epoch driver of Run and RunLive: it clears
// the mailbox (packets addressed to ranks that crashed or aborted in a
// previous epoch are dead letters, and every abort is per epoch), then
// hands the epoch to the selected driver, which runs runRank on each
// member. Split partitions a failure left unread die with the epoch.
func (w *World) runMembers(id uint64, members []int, fn func(c *Comm) error) error {
	w.box.Lock()
	for g := range w.held {
		w.held[g] = nil
		w.waitSrc[g] = -1
		w.aborted[g] = nil
	}
	w.box.Unlock()
	defer w.dropSplits()
	errs := make([]error, len(members))
	if w.driver == DriverSched {
		if err := w.runMembersSched(id, members, fn, errs); err != nil {
			return err
		}
	} else {
		w.runMembersGoroutine(id, members, fn, errs)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", members[i], err)
		}
	}
	return nil
}

// runMembersGoroutine is runMembers' epoch body under the default
// driver: one live goroutine per member.
func (w *World) runMembersGoroutine(id uint64, members []int, fn func(c *Comm) error, errs []error) {
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.runRank(id, members, i, fn)
		}(i)
	}
	wg.Wait()
}

// runRank runs fn as member i of an epoch. A callback error is
// published as the rank's abort, so peers blocked on it adopt the root
// cause instead of deadlocking.
func (w *World) runRank(id uint64, members []int, i int, fn func(c *Comm) error) error {
	g := members[i]
	err := fn(&Comm{w: w, id: id, rank: i, size: len(members), members: members})
	if err != nil {
		w.publishFailure(g, w.abortFailureFor(g, err, w.clocks[g].Now()), false)
	}
	return err
}

// newCommID allocates a distinct communicator identity for tag
// namespacing. The world communicator is ID 0.
func (w *World) newCommID() uint64 {
	w.commIDs.Lock()
	defer w.commIDs.Unlock()
	w.nextID++
	return w.nextID
}

// Comm is one rank's handle on a communicator. The world communicator
// is passed to Run's callback; sub-communicators come from Split.
// A Comm is confined to its rank's goroutine.
type Comm struct {
	w       *World
	id      uint64
	rank    int   // rank within this communicator
	size    int   // communicator size
	members []int // communicator rank -> global rank
	seq     uint64
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Global returns the caller's global (world) rank.
func (c *Comm) Global() int { return c.members[c.rank] }

// CG returns the global core-group index this rank is placed on.
func (c *Comm) CG() int { return c.w.cgOf[c.Global()] }

// Clock returns the rank's virtual clock. Engines advance it directly
// for local compute and DMA work.
func (c *Comm) Clock() *vclock.Clock { return c.w.clocks[c.Global()] }

// Stats returns the world's trace sink (possibly nil).
func (c *Comm) Stats() *trace.Stats { return c.w.stats }

// Obs returns the rank's span unit, nil when the world is unobserved.
// Engines record their local compute and DMA phases on it so the
// rank's timeline tiles completely.
func (c *Comm) Obs() *obs.Unit {
	if c.w.obsUnits == nil {
		return nil
	}
	return c.w.obsUnits[c.Global()]
}

// obsBegin opens a span section on the rank's unit at the current
// virtual time. Composite collectives nest sections; the depth guard
// in obs makes the outermost one claim the whole range.
func (c *Comm) obsBegin() (*obs.Unit, obs.Mark) {
	u := c.Obs()
	if u == nil {
		return nil, obs.Mark{}
	}
	return u, u.Begin(c.Clock().Now())
}

// obsEnd closes the section as one span of the given kind, ending at
// the rank's current virtual time.
func (c *Comm) obsEnd(u *obs.Unit, m obs.Mark, kind string, bytes int64) {
	if u == nil {
		return
	}
	u.End(m, kind, c.Clock().Now(), bytes, 0)
}

// nextTag mints the tag for the next collective operation (or the
// next step of a multi-step collective). All ranks of a communicator
// execute the same sequence of collective steps, so their sequence
// counters agree. Tags are unique per (communicator, step): the
// communicator identity occupies the bits above the 20-bit step
// counter and user tags live in a separate namespace (bit 63).
func (c *Comm) nextTag() uint64 {
	c.seq++
	return c.id<<20 | (c.seq & (1<<20 - 1))
}

// sendPacket transmits data and ints to communicator rank dst under
// tag. The packet carries copies, so the caller may reuse its buffers
// as soon as sendPacket returns; sendShared does the rest. Collectives
// whose protocol keeps the sender's buffer untouched until the
// receiver is done with it send through sendShared instead.
func (c *Comm) sendPacket(dst int, tag uint64, data []float64, ints []int64) error {
	// Fresh variables for the copies keep the caller's buffers from
	// escaping to the heap.
	var pd []float64
	var pi []int64
	if len(data) > 0 {
		pd = append(make([]float64, 0, len(data)), data...)
	}
	if len(ints) > 0 {
		pi = append(make([]int64, 0, len(ints)), ints...)
	}
	return c.sendShared(dst, tag, pd, pi, (len(data)+len(ints))*ldm.ElemBytes, nil)
}

// sendShared is the send path without the copy: the packet carries
// data and ints themselves, which the sender and every receiver must
// treat as read-only from here on, and the transfer is charged bytes
// whatever the payload's size — a charge-only hop passes nil payloads.
// It applies the fault machinery: the sender fail-stops at this
// boundary if its crash time has passed, transient message faults are
// retried with the wasted wire time and a doubling backoff charged to
// the sender's clock, and deposit drops a packet bound for a crashed
// or aborted peer. A non-nil fail marks the packet as poison.
func (c *Comm) sendShared(dst int, tag uint64, data []float64, ints []int64, bytes int, fail *RankFailure) error {
	if err := c.checkSelfCrash(); err != nil {
		return err
	}
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: send destination %d out of range [0,%d)", dst, c.size)
	}
	if dst == c.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", c.rank)
	}
	srcG, dstG := c.Global(), c.members[dst]
	c.w.stats.AddNet(int64(bytes))
	// The sender is busy for the injection duration; the wire time is
	// charged on the receive side through the timestamp.
	p := packet{src: srcG, tag: tag, data: data, ints: ints, fail: fail}
	srcCG, dstCG := c.w.cgOf[srcG], c.w.cgOf[dstG]
	tt, err := c.w.transferTime(srcCG, dstCG, bytes, c.Clock().Now())
	if err != nil {
		return err
	}
	if inj := c.w.inj; inj != nil {
		for attempt := 0; inj.MsgFault(srcCG, dstCG, tag, c.Clock().Now(), attempt); attempt++ {
			if attempt >= inj.MaxRetries() {
				// A rank that cannot get a message through is dead to
				// its peers: fail-stop so the heartbeat detector takes
				// over instead of leaving the protocol half-run.
				at := c.Clock().Now()
				c.w.markCrashed(srcG, at)
				return fmt.Errorf("mpi: rank %d message to rank %d (tag %#x) exhausted %d retries at t=%.9fs: %w",
					srcG, dstG, tag, inj.MaxRetries(), at, fault.ErrLinkFailed)
			}
			cost := tt + inj.Backoff(attempt+1)
			c.w.stats.AddNetRetry(1, cost)
			c.Clock().Advance(cost)
		}
	}
	p.time = c.Clock().Now() + tt
	c.w.deposit(dstG, p)
	return nil
}

// deposit is the final hand-off of every send. Under box it drops a
// dead letter (the destination crashed or aborted), otherwise appends
// p to the destination's held buffer and wakes the destination if it
// waits for exactly this (src, tag).
func (w *World) deposit(dstG int, p packet) {
	w.box.Lock()
	if w.crashed[dstG] == nil && w.aborted[dstG] == nil {
		w.held[dstG] = append(w.held[dstG], p)
		if w.waitSrc[dstG] == p.src && w.waitTag[dstG] == p.tag {
			w.wakeLocked(dstG, p.time)
		}
	}
	w.box.Unlock()
}

// wakeLocked wakes rank g, blocked in recvFull, for an event at virtual
// time at; the caller holds box. The DES driver schedules the wake-up
// at max(at, g's clock), where g's receive completes, so the event
// heap's order follows virtual time. The goroutine driver only
// signals: g owns its clock, and no other rank may read it.
func (w *World) wakeLocked(g int, at float64) {
	if des := w.des; des != nil {
		des.tasks[g].Wake(math.Max(at, w.clocks[g].Now()))
		return
	}
	w.wake[g].Signal()
}

// transferTime routes through the degraded-link model when faults are
// installed and the plain model otherwise.
func (w *World) transferTime(srcCG, dstCG, bytes int, at float64) (float64, error) {
	if w.netAt != nil {
		return w.netAt.TransferTimeAt(srcCG, dstCG, bytes, at)
	}
	return w.net.TransferTime(srcCG, dstCG, bytes)
}

// recv blocks until the message with the given tag from communicator
// rank src arrives, reconciles the clock and returns the payloads.
// Failures (poison packets, crashed or aborted peers) surface as hard
// errors here; collective internals use recvFull to fold them into an
// opState instead.
func (c *Comm) recv(src int, tag uint64) ([]float64, []int64, error) {
	d, i, fail, err := c.recvFull(src, tag)
	if err != nil {
		return nil, nil, err
	}
	if fail != nil {
		return nil, nil, fail
	}
	return d, i, nil
}

// recvFull is the failure-aware receive. The hard error (last return)
// is only ever the caller's own fail-stop; a peer's failure comes back
// as a *RankFailure with nil payloads. Under box it takes a held match,
// else reports the source's crash or abort, else records its wait and
// blocks until a deposit or a failure publication wakes it. Checking
// held before the failure flags is what makes a real match always win
// over a failure report (see the top of fault.go).
func (c *Comm) recvFull(src int, tag uint64) ([]float64, []int64, *RankFailure, error) {
	if err := c.checkSelfCrash(); err != nil {
		return nil, nil, nil, err
	}
	if src < 0 || src >= c.size {
		return nil, nil, nil, fmt.Errorf("mpi: recv source %d out of range [0,%d)", src, c.size)
	}
	w, srcG, me := c.w, c.members[src], c.Global()
	w.box.Lock()
	for {
		for i, p := range w.held[me] {
			if p.src == srcG && p.tag == tag {
				w.held[me] = slices.Delete(w.held[me], i, i+1)
				w.box.Unlock()
				c.Clock().AdvanceTo(p.time)
				// A poison packet carries nil payloads.
				return p.data, p.ints, p.fail, nil
			}
		}
		fail := w.crashed[srcG]
		if fail == nil {
			fail = w.aborted[srcG]
		}
		if fail != nil {
			w.box.Unlock()
			c.Clock().AdvanceTo(fail.DetectedAt)
			return nil, nil, fail, nil
		}
		w.waitSrc[me], w.waitTag[me] = srcG, tag
		if des := w.des; des != nil {
			w.box.Unlock()
			des.tasks[me].Park()
			w.box.Lock()
		} else {
			w.wake[me].Wait()
		}
		w.waitSrc[me] = -1
	}
}

// Send transmits data and ints to communicator rank dst as a
// point-to-point message with a caller-chosen small tag.
func (c *Comm) Send(dst int, tag int, data []float64, ints []int64) error {
	if tag < 0 || tag >= 1<<20 {
		return fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	u, m := c.obsBegin()
	err := c.sendPacket(dst, uint64(tag)|1<<63, data, ints)
	c.obsEnd(u, m, "mpi:send", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// Recv receives the matching point-to-point message from src.
func (c *Comm) Recv(src int, tag int) ([]float64, []int64, error) {
	if tag < 0 || tag >= 1<<20 {
		return nil, nil, fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	u, m := c.obsBegin()
	data, ints, err := c.recv(src, uint64(tag)|1<<63)
	c.obsEnd(u, m, "mpi:recv", int64((len(data)+len(ints))*ldm.ElemBytes))
	return data, ints, err
}

// Barrier blocks until every rank of the communicator has entered,
// using the dissemination algorithm (works for any size, log2 rounds).
// A failure anywhere poisons every survivor: dissemination is an
// allgather pattern, so the failure marker reaches all ranks.
func (c *Comm) Barrier() error {
	u, m := c.obsBegin()
	err := c.barrier()
	c.obsEnd(u, m, "mpi:barrier", 0)
	return err
}

func (c *Comm) barrier() error {
	st := &opState{}
	for step := 1; step < c.size; step *= 2 {
		tag := c.nextTag()
		to := (c.rank + step) % c.size
		from := (c.rank - step + c.size) % c.size
		if err := c.opSend(st, to, tag, nil, nil); err != nil {
			return err
		}
		if _, _, err := c.opRecv(st, from, tag); err != nil {
			return err
		}
	}
	return st.err()
}

// Bcast distributes root's data and ints to every rank using a
// binomial tree. Non-root ranks receive into the provided slices,
// which must have the same lengths as root's.
func (c *Comm) Bcast(root int, data []float64, ints []int64) error {
	u, m := c.obsBegin()
	st := &opState{}
	err := c.bcastOp(st, root, data, ints, 0)
	if err == nil {
		err = st.err()
	}
	c.obsEnd(u, m, "mpi:bcast", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// bcastOp is the poison-aware broadcast body shared by Bcast and the
// composite collectives: a poisoned rank walks the identical tree
// forwarding the failure marker instead of the payload. The root
// snapshots its payload once and the snapshot travels down the tree
// unchanged; every other rank copies it into its own buffers, so all
// ranks may modify data and ints as soon as bcastOp returns. A
// positive w is the row-aware copy-back of AllReduceRowSums: ints
// count data's rows of w values, and only rows with a non-zero count
// are copied (the others are +0 in the result and already +0 here).
func (c *Comm) bcastOp(st *opState, root int, data []float64, ints []int64, w int) error {
	var sd []float64
	var si []int64
	if c.rank == root && c.size > 1 {
		if len(data) > 0 {
			sd = append(make([]float64, 0, len(data)), data...)
		}
		if len(ints) > 0 {
			si = append(make([]int64, 0, len(ints)), ints...)
		}
	}
	d, i, err := c.bcastTree(st, root, sd, si, (len(data)+len(ints))*ldm.ElemBytes)
	if err != nil || st.fail != nil || c.rank == root {
		return err
	}
	if len(d) != len(data) || len(i) != len(ints) {
		return fmt.Errorf("mpi: bcast payload mismatch on rank %d", c.rank)
	}
	copy(ints, i)
	if w == 0 {
		copy(data, d)
		return nil
	}
	for r, n := range i {
		if n != 0 {
			copy(data[r*w:(r+1)*w], d[r*w:(r+1)*w])
		}
	}
	return nil
}

// bcastTree walks one broadcast's binomial tree: the root sends data
// and ints to its children, every other rank receives the packet from
// its parent and forwards that same packet to its children. Payloads
// are shared, never copied, so they are read-only from the moment the
// root hands them over; each hop is charged bytes whatever it carries.
// It returns the payload the rank holds at the end: the root's own, or
// the received one (nil once the rank is poisoned).
func (c *Comm) bcastTree(st *opState, root int, data []float64, ints []int64, bytes int) ([]float64, []int64, error) {
	if root < 0 || root >= c.size {
		return nil, nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	// Find the receiving step: lowest set bit of rel.
	mask := 1
	for mask < c.size {
		if rel&mask != 0 {
			src := (c.rank - mask + c.size) % c.size
			d, i, err := c.opRecv(st, commRank(src), tag)
			if err != nil {
				return nil, nil, err
			}
			data, ints = d, i
			break
		}
		mask <<= 1
	}
	// Forward to children: steps above the receiving step.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < c.size && rel&(mask-1) == 0 && rel&mask == 0 {
			dst := (c.rank + mask) % c.size
			if err := c.opSendShared(st, dst, tag, data, ints, bytes); err != nil {
				return nil, nil, err
			}
		}
	}
	return data, ints, nil
}

// commRank is an identity helper that documents rank-space: all
// internal tree arithmetic is already in communicator rank space.
func commRank(r int) int { return r }

// Reduce combines data and ints element-wise with summation onto the
// root rank using a binomial tree. On non-root ranks the slices are
// left in an unspecified partially-combined state; callers that need
// the result everywhere use AllReduceSum.
func (c *Comm) Reduce(root int, data []float64, ints []int64) error {
	u, m := c.obsBegin()
	st := &opState{}
	err := c.reduceOp(st, root, data, ints, 0, false)
	if err == nil {
		err = st.err()
	}
	c.obsEnd(u, m, "mpi:reduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// reduceOp is the poison-aware binomial reduce body. A failure in any
// subtree propagates up to the root, which is what lets the composite
// AllReduceSum distribute it to every survivor in the broadcast phase.
//
// shared sends the rank's own buffers instead of copies. The allreduce
// bodies may: a sender does not touch its buffers again until the
// broadcast result reaches it, which is causally after its parent has
// read them. A positive w makes the reduce row-aware (AllReduceRowSums):
// ints count data's rows of w values, and a child row whose subtree
// count is zero is all +0, so adding it is skipped. Every hop is
// charged the dense payload either way.
func (c *Comm) reduceOp(st *opState, root int, data []float64, ints []int64, w int, shared bool) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: reduce root %d out of range", root)
	}
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	for mask := 1; mask < c.size; mask <<= 1 {
		if rel&mask != 0 {
			dst := (c.rank - mask + c.size) % c.size
			if shared {
				return c.opSendShared(st, dst, tag, data, ints, (len(data)+len(ints))*ldm.ElemBytes)
			}
			return c.opSend(st, dst, tag, data, ints)
		}
		if rel+mask < c.size {
			src := (c.rank + mask) % c.size
			d, i, err := c.opRecv(st, commRank(src), tag)
			if err != nil {
				return err
			}
			if st.fail == nil {
				if len(d) != len(data) || len(i) != len(ints) {
					return fmt.Errorf("mpi: reduce payload mismatch on rank %d", c.rank)
				}
				if w == 0 {
					for j, v := range d {
						data[j] += v
					}
				} else {
					for r, n := range i {
						if n != 0 {
							row := data[r*w : (r+1)*w]
							for j, v := range d[r*w : (r+1)*w] {
								row[j] += v
							}
						}
					}
				}
				for j, v := range i {
					ints[j] += v
				}
			}
		}
	}
	return nil
}

// AllReduceSum sums data and ints element-wise across all ranks and
// leaves the identical result on every rank (reduce to rank 0, then
// broadcast, so results are bitwise identical everywhere). On failure
// every survivor returns the same *RankFailure: the broadcast phase
// always runs, distributing the poison the reduce phase collected.
func (c *Comm) AllReduceSum(data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := c.allReduceSum(data, ints, 0)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// allReduceSum is the binomial reduce+broadcast body of AllReduceSum
// (w = 0) and of AllReduceRowSums' small-payload path (w > 0: ints
// count data's rows of w values). Reduce senders share their buffers;
// on error the buffers' contents are unspecified and peers may still
// be reading them, so callers abandon them.
func (c *Comm) allReduceSum(data []float64, ints []int64, w int) error {
	if c.size == 1 {
		return c.checkSelfCrash()
	}
	st := &opState{}
	if err := c.reduceOp(st, 0, data, ints, w, true); err != nil {
		return err
	}
	if err := c.bcastOp(st, 0, data, ints, w); err != nil {
		return err
	}
	return st.err()
}

// AllReduceMinPairs reduces (value, payload) pairs with lexicographic
// minimum: the smallest value wins; ties break to the smallest
// payload. It is the assignment-combining operation of Algorithms 2
// and 3 (a(i) = min a(i)'), with payload carrying the centroid index.
// All ranks receive identical results.
func (c *Comm) AllReduceMinPairs(vals []float64, idxs []int64) error {
	u, m := c.obsBegin()
	err := c.allReduceMinPairs(vals, idxs)
	c.obsEnd(u, m, "mpi:minpairs", int64((len(vals)+len(idxs))*ldm.ElemBytes))
	return err
}

func (c *Comm) allReduceMinPairs(vals []float64, idxs []int64) error {
	if len(vals) != len(idxs) {
		return fmt.Errorf("mpi: min-pairs length mismatch %d vs %d", len(vals), len(idxs))
	}
	if c.size == 1 {
		return c.checkSelfCrash()
	}
	st := &opState{}
	tag := c.nextTag()
	// Binomial reduce to rank 0 with min combiner. Senders share their
	// buffers, like allReduceSum's reduce phase.
	for mask := 1; mask < c.size; mask <<= 1 {
		if c.rank&mask != 0 {
			if err := c.opSendShared(st, c.rank-mask, tag, vals, idxs, (len(vals)+len(idxs))*ldm.ElemBytes); err != nil {
				return err
			}
			break
		}
		if c.rank+mask < c.size {
			d, i, err := c.opRecv(st, c.rank+mask, tag)
			if err != nil {
				return err
			}
			if st.fail == nil {
				if len(d) != len(vals) {
					return fmt.Errorf("mpi: min-pairs payload mismatch on rank %d", c.rank)
				}
				for j := range vals {
					//swlint:ignore float-eq -- exact-value tie breaks to the lowest index, the paper's deterministic combining order
					if d[j] < vals[j] || (d[j] == vals[j] && i[j] < idxs[j]) {
						vals[j], idxs[j] = d[j], i[j]
					}
				}
			}
		}
	}
	if err := c.bcastOp(st, 0, vals, idxs, 0); err != nil {
		return err
	}
	return st.err()
}

// AllGatherInts gathers each rank's ints contribution and returns the
// concatenation ordered by rank, identical on every rank. All
// contributions must have the same length.
func (c *Comm) AllGatherInts(contrib []int64) ([]int64, error) {
	u, m := c.obsBegin()
	all, err := c.allGatherInts(contrib)
	c.obsEnd(u, m, "mpi:allgather", int64(len(all)*ldm.ElemBytes))
	return all, err
}

func (c *Comm) allGatherInts(contrib []int64) ([]int64, error) {
	n := len(contrib)
	all := make([]int64, n*c.size)
	copy(all[c.rank*n:], contrib)
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return all, nil
	}
	st := &opState{}
	tag := c.nextTag()
	// Gather to rank 0, then broadcast. Simple and deterministic.
	if c.rank == 0 {
		for src := 1; src < c.size; src++ {
			_, i, err := c.opRecv(st, src, tag)
			if err != nil {
				return nil, err
			}
			if st.fail == nil {
				if len(i) != n {
					return nil, fmt.Errorf("mpi: allgather size mismatch from rank %d: %d vs %d", src, len(i), n)
				}
				copy(all[src*n:], i)
			}
		}
	} else {
		if err := c.opSend(st, 0, tag, nil, contrib); err != nil {
			return nil, err
		}
	}
	if err := c.bcastOp(st, 0, nil, all, 0); err != nil {
		return nil, err
	}
	if st.fail != nil {
		return nil, st.fail
	}
	return all, nil
}

package mpi

import (
	"fmt"

	"repro/internal/ldm"
)

// ringThresholdElems selects the allreduce algorithm: payloads of at
// least this many elements use the bandwidth-optimal ring, smaller
// ones the latency-optimal binomial reduce+broadcast. The Update step
// of the k-means engines crosses this boundary as k·d grows, exactly
// the regime split real MPI libraries implement.
const ringThresholdElems = 1 << 16

// AllReduceRowSums is the k-means Update step's allreduce: it sums
// data and counts element-wise across all ranks and leaves the
// identical result on every rank, bit for bit what the dense
// algorithm it selects would produce. data holds len(counts) rows of
// w values and counts[r] is row r's sample count. The caller
// guarantees that counts are non-negative, that a row whose count is
// zero is all +0 on this rank, and that no value is −0 (a sum
// accumulated from +0 never is); after the call the same holds for
// the result, so the caller can clear just the counted rows before
// accumulating again.
//
// Payloads below ringThresholdElems (and communicators of two ranks)
// take the binomial reduce+broadcast of AllReduceSum, which then moves
// only the rows that carry a count: a parent skips adding child rows
// whose subtree count is zero, and non-roots copy back only the
// result's counted rows. Both skips are exact, because x + (+0) == x
// for every x that is not −0. Larger payloads take the dense ring of
// AllReduceSumRing. Either way every hop is charged the dense payload,
// so virtual time and traffic equal the dense call's. The two
// algorithms associate additions differently, so they are not bitwise
// interchangeable with each other.
func (c *Comm) AllReduceRowSums(data []float64, counts []int64, w int) error {
	if w <= 0 || len(data) != len(counts)*w {
		return fmt.Errorf("mpi: row sums of %d values do not form %d rows of width %d", len(data), len(counts), w)
	}
	if len(data)+len(counts) >= ringThresholdElems && c.size > 2 {
		return c.AllReduceSumRing(data, counts)
	}
	u, m := c.obsBegin()
	err := c.allReduceSum(data, counts, w)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(counts))*ldm.ElemBytes))
	return err
}

// AllReduceSumRing sums data and ints element-wise across all ranks
// with the bandwidth-optimal ring algorithm: a reduce-scatter phase
// (p-1 steps, each moving one 1/p segment around the ring while
// accumulating) followed by an allgather phase (p-1 steps broadcasting
// the finished segments). Every rank transfers about 2·(p-1)/p of the
// payload regardless of p, versus 2·log2(p) payloads for the binomial
// algorithm — the classic large-message trade.
func (c *Comm) AllReduceSumRing(data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := c.allReduceSumRing(data, ints)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

func (c *Comm) allReduceSumRing(data []float64, ints []int64) error {
	p := c.size
	if p == 1 {
		return c.checkSelfCrash()
	}
	st := &opState{}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	segF := func(s int) (int, int) { return segment(len(data), p, s) }
	segI := func(s int) (int, int) { return segment(len(ints), p, s) }

	// Reduce-scatter: in step t, send segment (rank-t) and receive and
	// accumulate segment (rank-t-1). After p-1 steps, rank r holds the
	// fully reduced segment (r+1) mod p. A failure travels forward one
	// hop per step as poison, so the 2(p-1) total steps are enough to
	// reach every survivor.
	for t := 0; t < p-1; t++ {
		tag := c.nextTag()
		sendSeg := mod(c.rank-t, p)
		recvSeg := mod(c.rank-t-1, p)
		fLo, fHi := segF(sendSeg)
		iLo, iHi := segI(sendSeg)
		if err := c.opSend(st, next, tag, data[fLo:fHi], ints[iLo:iHi]); err != nil {
			return err
		}
		d, ii, err := c.opRecv(st, prev, tag)
		if err != nil {
			return err
		}
		if st.fail == nil {
			fLo, fHi = segF(recvSeg)
			iLo, iHi = segI(recvSeg)
			if len(d) != fHi-fLo || len(ii) != iHi-iLo {
				return fmt.Errorf("mpi: ring reduce-scatter segment mismatch on rank %d step %d", c.rank, t)
			}
			for j, v := range d {
				data[fLo+j] += v
			}
			for j, v := range ii {
				ints[iLo+j] += v
			}
		}
	}
	// Allgather: circulate the finished segments. In step t, send
	// segment (rank-t+1) and receive segment (rank-t).
	for t := 0; t < p-1; t++ {
		tag := c.nextTag()
		sendSeg := mod(c.rank-t+1, p)
		recvSeg := mod(c.rank-t, p)
		fLo, fHi := segF(sendSeg)
		iLo, iHi := segI(sendSeg)
		if err := c.opSend(st, next, tag, data[fLo:fHi], ints[iLo:iHi]); err != nil {
			return err
		}
		d, ii, err := c.opRecv(st, prev, tag)
		if err != nil {
			return err
		}
		if st.fail == nil {
			fLo, fHi = segF(recvSeg)
			iLo, iHi = segI(recvSeg)
			if len(d) != fHi-fLo || len(ii) != iHi-iLo {
				return fmt.Errorf("mpi: ring allgather segment mismatch on rank %d step %d", c.rank, t)
			}
			copy(data[fLo:fHi], d)
			copy(ints[iLo:iHi], ii)
		}
	}
	return st.err()
}

// segment splits n elements into p near-equal contiguous segments and
// returns segment s as a half-open range.
func segment(n, p, s int) (int, int) {
	base := n / p
	extra := n % p
	lo := s*base + min(s, extra)
	hi := lo + base
	if s < extra {
		hi++
	}
	return lo, hi
}

func mod(a, p int) int { return ((a % p) + p) % p }

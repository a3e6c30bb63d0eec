package mpi

import "fmt"

// Gather collects each rank's equal-size contribution at the root,
// ordered by rank, using a binomial tree (children aggregate their
// subtree before forwarding, so the message count is O(log p) per
// rank). Non-root ranks receive nil.
func (c *Comm) Gather(root int, data []float64) ([]float64, error) {
	st := &opState{}
	out, err := c.gatherOp(st, root, data)
	if err != nil {
		return nil, err
	}
	if st.fail != nil {
		return nil, st.fail
	}
	return out, nil
}

// gatherOp is the poison-aware gather body.
func (c *Comm) gatherOp(st *opState, root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("mpi: gather root %d out of range", root)
	}
	n := len(data)
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	// subtree holds the contributions of relative ranks
	// [rel, rel+span) collected so far, span doubling per step.
	subtree := append([]float64(nil), data...)
	span := 1
	for mask := 1; ; mask <<= 1 {
		if rel&mask != 0 {
			dst := (c.rank - mask + c.size) % c.size
			if err := c.opSend(st, dst, tag, subtree, []int64{int64(span)}); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if rel+mask < c.size {
			srcRel := rel + mask
			src := (srcRel + root) % c.size
			d, meta, err := c.opRecv(st, src, tag)
			if err != nil {
				return nil, err
			}
			if st.fail == nil {
				if len(meta) != 1 || len(d)%max(n, 1) != 0 && n > 0 {
					return nil, fmt.Errorf("mpi: gather payload mismatch on rank %d", c.rank)
				}
				subtree = append(subtree, d...)
				span += int(meta[0])
			}
		}
		if mask >= c.size {
			break
		}
	}
	if st.fail != nil {
		return nil, nil
	}
	// Root: subtree is ordered by relative rank; rotate to world order.
	if rel != 0 {
		return nil, fmt.Errorf("mpi: gather reached root path on non-root rank %d", c.rank)
	}
	if len(subtree) != n*c.size {
		return nil, fmt.Errorf("mpi: gather assembled %d values, want %d", len(subtree), n*c.size)
	}
	out := make([]float64, n*c.size)
	for relRank := 0; relRank < c.size; relRank++ {
		abs := (relRank + root) % c.size
		copy(out[abs*n:(abs+1)*n], subtree[relRank*n:(relRank+1)*n])
	}
	return out, nil
}

// Scatter distributes equal slices of root's data to every rank:
// rank r receives data[r*len/size : (r+1)*len/size]. Implemented as a
// binomial tree where each parent forwards its children's subtree
// slice. data is only read at the root; its length must be a multiple
// of the communicator size.
func (c *Comm) Scatter(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("mpi: scatter root %d out of range", root)
	}
	st := &opState{}
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	var subtree []float64 // slices for relative ranks [rel, rel+span)
	n := -1
	if rel == 0 {
		if len(data)%c.size != 0 {
			return nil, fmt.Errorf("mpi: scatter payload %d not divisible by %d ranks", len(data), c.size)
		}
		n = len(data) / c.size
		// Reorder into relative-rank order once.
		subtree = make([]float64, len(data))
		for relRank := 0; relRank < c.size; relRank++ {
			abs := (relRank + root) % c.size
			copy(subtree[relRank*n:(relRank+1)*n], data[abs*n:(abs+1)*n])
		}
	} else {
		// Receive my subtree from the parent (lowest set bit of rel).
		mask := 1
		for rel&mask == 0 {
			mask <<= 1
		}
		parent := (c.rank - mask + c.size) % c.size
		d, _, err := c.opRecv(st, parent, tag)
		if err != nil {
			return nil, err
		}
		subtree = d
	}
	// Forward the upper halves to children, halving the span. A
	// poisoned rank walks the identical child edges with the failure
	// marker so the whole subtree learns of the failure.
	span := largestSpan(rel, c.size)
	for mask := span / 2; mask >= 1; mask /= 2 {
		if rel+mask >= c.size {
			continue
		}
		child := (c.rank + mask) % c.size
		if st.fail != nil {
			if err := c.opSend(st, child, tag, nil, nil); err != nil {
				return nil, err
			}
			continue
		}
		if n < 0 {
			// Subtree covers min(span, size-rel) relative ranks.
			cover := min(span, c.size-rel)
			n = len(subtree) / cover
		}
		childCover := min(mask, c.size-rel-mask)
		lo := mask * n
		hi := lo + childCover*n
		if hi > len(subtree) {
			return nil, fmt.Errorf("mpi: scatter subtree underflow on rank %d", c.rank)
		}
		if err := c.opSend(st, child, tag, subtree[lo:hi], nil); err != nil {
			return nil, err
		}
		subtree = subtree[:lo]
	}
	if st.fail != nil {
		return nil, st.fail
	}
	if n < 0 {
		n = len(subtree)
	}
	if len(subtree) != n {
		return nil, fmt.Errorf("mpi: scatter left %d values on rank %d, want %d", len(subtree), c.rank, n)
	}
	return subtree, nil
}

// largestSpan returns the subtree span of relative rank rel in a
// binomial tree over size ranks: the largest power of two not
// exceeding size for the root, otherwise the lowest set bit of rel.
func largestSpan(rel, size int) int {
	if rel == 0 {
		s := 1
		for s < size {
			s <<= 1
		}
		return s
	}
	return rel & (-rel)
}

// AllGatherFloats gathers each rank's equal-size float contribution
// and returns the concatenation ordered by rank, identical on every
// rank.
func (c *Comm) AllGatherFloats(contrib []float64) ([]float64, error) {
	st := &opState{}
	gathered, err := c.gatherOp(st, 0, contrib)
	if err != nil {
		return nil, err
	}
	if c.rank != 0 || gathered == nil {
		gathered = make([]float64, len(contrib)*c.size)
	}
	if err := c.bcastOp(st, 0, gathered, nil, 0); err != nil {
		return nil, err
	}
	if st.fail != nil {
		return nil, st.fail
	}
	return gathered, nil
}

package mpi

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ldm"
)

// Split partitions the communicator: ranks passing equal color form a
// new communicator, ordered by (key, rank). Every rank of the parent
// must call Split. The returned Comm is ready for collectives within
// the partition.
func (c *Comm) Split(color, key int) (*Comm, error) {
	u, m := c.obsBegin()
	sub, err := c.split(color, key)
	c.obsEnd(u, m, "mpi:split", 0)
	return sub, err
}

// split is priced as the all-gather of every rank's (color, key) that
// a real MPI_Comm_split performs — a gather to rank 0, then a binomial
// broadcast of the 2P-entry table — but only rank 0 ever holds the
// table. It computes the partition once, with one group per color, and
// leaves it on the parent's group; the broadcast hops carry no
// payload, only the table's charge, and each member reads its own
// entry once the broadcast reaches it. Messages, tags, seq advances,
// clocks and trace counters are those of the all-gather, and the host
// work is O(P) instead of every rank scanning the whole table.
//
// The broadcast orders rank 0's write of the partition before every
// member's read, and the next Split cannot overwrite it early: rank 0
// publishes only after every member has sent its entry, which each
// member does after reading the current partition.
func (c *Comm) split(color, key int) (*Comm, error) {
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return &Comm{w: c.w, g: &group{members: c.g.members, key: c.subKey(c.seq, 0)}, size: 1}, nil
	}
	st := &opState{}
	tag := c.nextTag()
	if c.rank == 0 {
		pairs := make([]int64, 2*c.size)
		pairs[0], pairs[1] = int64(color), int64(key)
		for src := 1; src < c.size; src++ {
			_, i, err := c.opRecv(st, src, tag)
			if err != nil {
				return nil, err
			}
			if st.fail == nil {
				if len(i) != 2 {
					return nil, fmt.Errorf("mpi: split entry size mismatch from rank %d: %d vs 2", src, len(i))
				}
				copy(pairs[2*src:], i)
			}
		}
		if st.fail == nil {
			c.g.split = c.newSplitTable(pairs, tag.seq)
		}
	} else if err := c.opSend(st, 0, tag, nil, []int64{int64(color), int64(key)}); err != nil {
		return nil, err
	}
	if _, _, err := c.bcastTree(st, 0, nil, nil, 2*c.size*ldm.ElemBytes); err != nil {
		return nil, err
	}
	if st.fail != nil {
		return nil, st.fail
	}
	t := c.g.split
	if t == nil || t.seq != tag.seq {
		return nil, fmt.Errorf("mpi: rank %d found no partition for the split at step %d", c.rank, tag.seq)
	}
	g := t.groups[t.color[c.rank]]
	return &Comm{w: c.w, g: g, rank: t.rank[c.rank], size: len(g.members)}, nil
}

// subKey is the fault key of the sub-communicator with color index
// colorIdx among the sorted distinct colors of a split that leaves the
// parent at step seq. Distinct siblings get distinct keys while there
// are fewer than 65,536 colors; beyond that keys only correlate fault
// rolls, since nothing matches on them.
func (c *Comm) subKey(seq uint64, colorIdx int) uint64 {
	return (c.g.key*1_000_003+seq)*65536 + uint64(colorIdx) + 1
}

// splitTable is one Split's partition, indexed by parent rank. It is
// read-only once published, and its groups are the sub-communicators'.
type splitTable struct {
	seq    uint64   // step of the split's gather on the parent
	groups []*group // per color index, members in (key, parent rank) order
	color  []int    // parent rank -> color index among the sorted distinct colors
	rank   []int    // parent rank -> rank within its group
}

// newSplitTable partitions the communicator from the gathered (color,
// key) pairs with one sort by (color, key, parent rank), for the split
// gathered at step seq. The split's broadcast is the parent's step
// seq+1, at which the split leaves the parent and the groups' keys are
// taken.
func (c *Comm) newSplitTable(pairs []int64, seq uint64) *splitTable {
	members := c.g.members
	n := len(members)
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int {
		if o := cmp.Compare(pairs[2*a], pairs[2*b]); o != 0 {
			return o
		}
		if o := cmp.Compare(pairs[2*a+1], pairs[2*b+1]); o != 0 {
			return o
		}
		return cmp.Compare(a, b)
	})
	t := &splitTable{seq: seq, color: make([]int, n), rank: make([]int, n)}
	global := make([]int, n)
	lo := 0
	cut := func(hi int) {
		t.groups = append(t.groups, &group{members: global[lo:hi:hi], key: c.subKey(seq+1, len(t.groups))})
		lo = hi
	}
	for i, r := range order {
		if i > 0 && pairs[2*r] != pairs[2*order[i-1]] {
			cut(i)
		}
		global[i] = members[r]
		t.color[r] = len(t.groups)
		t.rank[r] = i - lo
	}
	cut(n)
	return t
}

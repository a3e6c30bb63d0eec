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
// table. It computes the partition once, publishes it in the world's
// split table, and the broadcast hops carry no payload, only the
// table's charge; each member reads its own entry once the broadcast
// reaches it. Messages, tags, seq advances, clocks and trace counters
// are those of the all-gather, and the host work is O(P) instead of
// every rank scanning the whole table.
func (c *Comm) split(color, key int) (*Comm, error) {
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return &Comm{w: c.w, id: c.splitID(0), size: 1, members: c.members}, nil
	}
	st := &opState{}
	tag := c.nextTag()
	sk := splitKey{id: c.id, tag: tag, root: c.members[0]}
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
			if err := c.w.putSplit(sk, newSplitTable(pairs, c.members)); err != nil {
				return nil, err
			}
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
	members, rank, colorIdx, err := c.w.takeSplit(sk, c.rank)
	if err != nil {
		return nil, err
	}
	return &Comm{w: c.w, id: c.splitID(colorIdx), rank: rank, size: len(members), members: members}, nil
}

// splitID derives a sub-communicator's identity from the parent's
// (id, seq) after the split's all-gather and the index of the color
// among the split's sorted distinct colors, so every member computes
// it without further communication. Sibling communicators of one
// split get distinct ids while there are fewer than 65,536 colors.
// Across splits the formula is not collision-free: depth-1 ids
// outgrow nextTag's 43-bit id field after ~135 Run calls on one world
// and depth-2 ids wrap uint64, so two communicators can share a tag
// namespace. The id must keep this formula until ids are interned,
// because the tag it feeds is hashed by fault.MsgFault.
func (c *Comm) splitID(colorIdx int) uint64 {
	return (c.id*1_000_003+c.seq)*65536 + uint64(colorIdx) + 1
}

// splitKey identifies one Split in the world's split table: the
// parent communicator, the tag of the split's gather, and the parent's
// rank 0, which disambiguates disjoint communicators whose ids alias.
type splitKey struct {
	id, tag uint64
	root    int
}

// splitTable is one Split's partition, indexed by parent rank. Every
// field but readers is read-only once published, and the member slices
// are shared by the sub-communicators built from them.
type splitTable struct {
	groups  [][]int // per color index: member global ranks in (key, parent rank) order
	color   []int   // parent rank -> color index among the sorted distinct colors
	rank    []int   // parent rank -> rank within its group
	readers int     // parent ranks yet to read the table, counted down under World.splitMu
}

// newSplitTable partitions a parent communicator of global ranks
// members from the gathered (color, key) pairs with one sort by
// (color, key, parent rank).
func newSplitTable(pairs []int64, members []int) *splitTable {
	n := len(members)
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(pairs[2*a], pairs[2*b]); c != 0 {
			return c
		}
		if c := cmp.Compare(pairs[2*a+1], pairs[2*b+1]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	t := &splitTable{color: make([]int, n), rank: make([]int, n), readers: n}
	global := make([]int, n)
	lo := 0
	for i, r := range order {
		if i > 0 && pairs[2*r] != pairs[2*order[i-1]] {
			t.groups = append(t.groups, global[lo:i:i])
			lo = i
		}
		global[i] = members[r]
		t.color[r] = len(t.groups)
		t.rank[r] = i - lo
	}
	t.groups = append(t.groups, global[lo:n:n])
	return t
}

// putSplit publishes a partition under its key. An occupied key means
// two live splits alias, which would hand one split's members the
// other's partition, so it is an error rather than an overwrite.
func (w *World) putSplit(k splitKey, t *splitTable) error {
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	if _, ok := w.splits[k]; ok {
		return fmt.Errorf("mpi: split table key %+v is already live", k)
	}
	if w.splits == nil {
		w.splits = make(map[splitKey]*splitTable)
	}
	w.splits[k] = t
	return nil
}

// takeSplit reads parent rank's entry of a published partition; the
// last reader removes the partition from the table.
func (w *World) takeSplit(k splitKey, rank int) (members []int, newRank, colorIdx int, err error) {
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	t := w.splits[k]
	if t == nil {
		return nil, 0, 0, fmt.Errorf("mpi: rank %d found no split table under %+v", rank, k)
	}
	if t.readers--; t.readers == 0 {
		delete(w.splits, k)
	}
	colorIdx = t.color[rank]
	return t.groups[colorIdx], t.rank[rank], colorIdx, nil
}

// dropSplits forgets partitions an epoch left unread: a failure that
// poisons part of a split's broadcast leaves those ranks' reads
// undone.
func (w *World) dropSplits() {
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	w.splits = nil
}

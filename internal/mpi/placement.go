package mpi

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Placement maps a rank to the global CG index it runs on. The default
// world uses the identity (compact) placement: consecutive ranks fill
// nodes, then supernodes — the paper's recommended layout.
type Placement func(rank int) int

// CompactPlacement is the identity mapping.
func CompactPlacement(rank int) int { return rank }

// StridedPlacement spreads consecutive ranks stride CGs apart, wrapping
// over total CGs — the adversarial layout that scatters a CG group
// across supernodes (what Section III.C warns against).
func StridedPlacement(stride, total int) Placement {
	return func(rank int) int {
		return (rank * stride) % total
	}
}

// NewWorldPlaced creates a world whose rank r runs on CG place(r).
// The placement must be injective into [0, spec.CGs()); it is
// validated eagerly.
func NewWorldPlaced(spec *machine.Spec, stats *trace.Stats, size int, place Placement) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	if size > spec.CGs() {
		return nil, fmt.Errorf("mpi: world size %d exceeds %d CGs of the deployment", size, spec.CGs())
	}
	if place == nil {
		place = CompactPlacement
	}
	cgOf := make([]int, size)
	seen := make(map[int]bool, size)
	for r := 0; r < size; r++ {
		cg := place(r)
		if cg < 0 || cg >= spec.CGs() {
			return nil, fmt.Errorf("mpi: placement maps rank %d to CG %d, outside [0,%d)", r, cg, spec.CGs())
		}
		if seen[cg] {
			return nil, fmt.Errorf("mpi: placement maps two ranks to CG %d", cg)
		}
		seen[cg] = true
		cgOf[r] = cg
	}
	w := &World{
		spec:    spec,
		net:     netmodel.MustNew(spec),
		stats:   stats,
		size:    size,
		cgOf:    cgOf,
		held:    make([][]packet, size),
		waitSrc: make([]int, size),
		waitTag: make([]msgTag, size),
		crashed: make([]*RankFailure, size),
		aborted: make([]*RankFailure, size),
		wake:    make([]sync.Cond, size),
		clocks: func() []*vclock.Clock {
			cs := make([]*vclock.Clock, size)
			for i := range cs {
				cs[i] = vclock.New()
			}
			return cs
		}(),
	}
	for g := range w.wake {
		w.wake[g].L = &w.box
	}
	return w, nil
}

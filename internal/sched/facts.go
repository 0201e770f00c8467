package sched

import (
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// loopFacts are the per-call loop facts: what the scheduler knows about the
// pristine loop and the target machine before it places anything. One
// ScheduleLoop call binds them once (state.init) and every attempt of the
// call reads them — every strategy, every candidate II, the compact
// fallback — as does the optimal tier's exact searcher (exact.go). Without
// them each attempt would rebuild the CSR precedence views and recompute the
// height priority fixpoint from scratch.
//
// Only placement-invariant facts live here. Placement-dependent candidates
// — per-op earliest-slot floors carried from a failed II, heights seeded
// from the previous II's fixpoint — are NOT kept: ops legally sit below
// their eventual floors mid-attempt (evictions re-place them), and at
// II == RecMII zero-weight critical cycles make the fixpoint II-specific,
// so either would change placement decisions and break the byte-identity
// contract that Effort: fast results are cached, snapshotted and remapped
// under (DESIGN.md §13 spells out the invalidation rules).
//
// The facts are read-only once bound, except that a height vector is
// written once, by the first attempt to need its II. An attempt that grows
// its working loop (move insertion) stops reading them and recomputes
// privately (state.detach, state.computeHeights).
type loopFacts struct {
	loop  *ir.Loop // the pristine input, never mutated
	n     int
	lat   []int
	class []machine.FUClass

	preds, succs ir.Adj

	// Machine facts of the target config (see maskInto); valid when the
	// machine fits the packed one-bit-per-cluster representation.
	adjMasks  []uint64
	allMask   uint64
	classMask [machine.NumClasses]uint64

	used    int // live prefix of heights (stale entries keep their storage)
	heights []iiHeights
}

type iiHeights struct {
	ii int
	h  []int
}

// bind computes the facts of a pristine loop on a machine, reusing the
// storage of the previous binding.
func (f *loopFacts) bind(l *ir.Loop, cfg *machine.Config) {
	f.loop = l
	f.n = len(l.Ops)
	f.lat = refill(f.lat, f.n, 0)
	f.class = refill(f.class, f.n, 0)
	for i, op := range l.Ops {
		f.lat[i] = op.Kind.Latency()
		f.class[i] = machine.ClassOf(op.Kind)
	}
	if nc := cfg.NumClusters(); nc <= 64 {
		f.adjMasks = refill(f.adjMasks, nc, 0)
		f.allMask, f.classMask = maskInto(f.adjMasks, cfg)
	}
	l.PredsInto(&f.preds)
	l.SuccsInto(&f.succs)
	f.used = 0
}

// heightsFor returns the height vector for ii, computing it at most once
// per II across every attempt of the call. The returned slice is
// immutable; callers that modify heights copy it into their own arena.
func (f *loopFacts) heightsFor(ii int) []int {
	for i := 0; i < f.used; i++ {
		if f.heights[i].ii == ii {
			return f.heights[i].h
		}
	}
	if f.used == len(f.heights) {
		f.heights = append(f.heights, iiHeights{})
	}
	e := &f.heights[f.used]
	e.ii = ii
	e.h = heightsInto(e.h, f.lat, f.loop.Deps, ii, f.n)
	f.used++
	return e.h
}

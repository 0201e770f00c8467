package sched

import (
	"sync"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// raceMemo shares placement-invariant facts across the attempts of one
// ScheduleLoop call. A portfolio search runs (strategies × candidate IIs)
// attempts over the same pristine loop; without sharing, each attempt
// rebuilds the CSR precedence views and recomputes the height priority
// fixpoint from scratch. Both depend only on the pristine graph (and, for
// heights, the II), so the memo computes them once and every attempt reads
// them.
//
// The sharing is deliberately limited to placement-invariant facts.
// Placement-dependent candidates — per-op earliest-slot floors carried from
// a failed II, heights seeded from the previous II's fixpoint — are NOT
// memoized: ops legally sit below their eventual floors mid-attempt
// (evictions re-place them), and at II == RecMII zero-weight critical
// cycles make the fixpoint II-specific, so either would change placement
// decisions and break the byte-identity contract that Effort: fast results
// are cached, snapshotted and remapped under (DESIGN.md §13 spells out the
// invalidation rules).
//
// The memo belongs to one ScheduleLoop call and is used by one goroutine.
// preds/succs/lat/deps are read-only once built; a height vector is
// written once, by the first attempt to need its II. An attempt that
// mutates its working loop (move insertion) detaches from the memo
// entirely and recomputes privately.
type raceMemo struct {
	n     int
	deps  []ir.Dep // aliases the pristine loop's list, never mutated
	lat   []int
	class []machine.FUClass

	preds, succs ir.Adj

	// Machine facts of the target config (see maskInto); valid when the
	// machine fits the packed one-bit-per-cluster representation.
	adjMasks  []uint64
	allMask   uint64
	classMask [machine.NumClasses]uint64

	used    int // live prefix of heights (stale entries keep their storage)
	heights []memoHeights
}

type memoHeights struct {
	ii int
	h  []int
}

// memoPool recycles raceMemo arenas across portfolio ScheduleLoop calls,
// like statePool does for scheduling states.
var memoPool = sync.Pool{New: func() any { return new(raceMemo) }}

// newRaceMemo binds a pooled memo to a pristine loop and the machine the
// portfolio targets.
func newRaceMemo(l *ir.Loop, cfg *machine.Config) *raceMemo {
	m := memoPool.Get().(*raceMemo)
	m.n = len(l.Ops)
	m.deps = l.Deps
	m.lat = refill(m.lat, m.n, 0)
	m.class = refill(m.class, m.n, 0)
	for i, op := range l.Ops {
		m.lat[i] = op.Kind.Latency()
		m.class[i] = machine.ClassOf(op.Kind)
	}
	if nc := cfg.NumClusters(); nc <= 64 {
		m.adjMasks = refill(m.adjMasks, nc, 0)
		m.allMask, m.classMask = maskInto(m.adjMasks, cfg)
	}
	l.PredsInto(&m.preds)
	l.SuccsInto(&m.succs)
	m.used = 0
	return m
}

// release returns the memo to the pool once the ScheduleLoop call that
// bound it is done with it.
func (m *raceMemo) release() {
	m.deps = nil
	memoPool.Put(m)
}

// heightsFor returns the shared height vector for ii, computing it at most
// once per (loop, II) across every strategy. The returned slice is
// immutable; callers copy it into their own arena.
func (m *raceMemo) heightsFor(ii int) []int {
	for i := 0; i < m.used; i++ {
		if m.heights[i].ii == ii {
			return m.heights[i].h
		}
	}
	if m.used == len(m.heights) {
		m.heights = append(m.heights, memoHeights{})
	}
	e := &m.heights[m.used]
	e.ii = ii
	e.h = heightsInto(e.h, m.lat, m.deps, ii, m.n)
	m.used++
	return e.h
}

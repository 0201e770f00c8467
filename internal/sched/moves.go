package sched

import (
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// insertMoveChain implements the paper's proposed extension (§5): when a
// flow dependence spans non-adjacent clusters, replace it with a chain of
// move operations hopping along the shortest ring path, each pinned to its
// intermediate cluster and executed on that cluster's COPY unit. The new
// operations join the worklist; the caller extends the budget by the number
// of added ops.
//
// It returns the number of operations added (0 if the chain cannot be built,
// in which case the consumer is evicted instead, as in the base algorithm).
func (st *state) insertMoveChain(d ir.Dep, wl *worklist) int {
	cp, cc := st.cluster[d.From], st.cluster[d.To]
	hops := st.cfg.RingDistance(cp, cc)
	if hops <= 1 {
		return 0
	}
	n := st.cfg.NumClusters()
	// Shortest direction around the ring.
	step := 1
	if (cp-cc+n)%n < (cc-cp+n)%n {
		step = -1
	}
	// Every intermediate cluster needs a COPY unit to host a move.
	path := st.pathBuf[:0]
	for c := (cp + step + n) % n; c != cc; c = (c + step + n) % n {
		if st.cfg.FUCount(c, machine.COPY) == 0 {
			st.evict(d.To, wl)
			return 0
		}
		path = append(path, c)
	}
	st.pathBuf = path

	// About to mutate the op and dependence lists: give the working loop
	// private storage. Until here they alias the pristine input (and, in a
	// portfolio search, the CSR views are the memo's, shared by every
	// strategy attempt), so mutating in place would corrupt later attempts.
	st.detach()

	// Remove the offending dependence (first value match).
	removed := false
	for i, e := range st.loop.Deps {
		if e == d {
			st.loop.Deps = append(st.loop.Deps[:i], st.loop.Deps[i+1:]...)
			removed = true
			break
		}
	}
	if !removed {
		return 0
	}

	// Build producer -> m1 -> ... -> mk -> consumer. The loop-carried
	// distance stays on the first hop, so no move instance is ever read
	// from before iteration zero; lineage is still set so a move's value
	// identity matches the value it forwards.
	src := st.loop.Ops[d.From]
	prev := d.From
	dist := d.Dist
	added := 0
	for _, c := range path {
		m := st.loop.AddOp(ir.KMove, "")
		m.Orig = src.EffID()
		m.Phase = src.Phase
		st.growOp(c)
		st.loop.AddDep(ir.Dep{From: prev, To: m.ID, Dist: dist, Kind: ir.Flow})
		prev, dist = m.ID, 0
		added++
		st.stats.MovesInserted++
		wl.push(m.ID)
	}
	st.loop.AddDep(ir.Dep{From: prev, To: d.To, Dist: dist, Kind: ir.Flow})

	// The graph changed shape: rebuild adjacency and priorities, and
	// restore the heap invariant under the new heights. The rebuild goes
	// into the state's private mutPreds/mutSuccs arenas — never into the
	// base views, whose storage may be shared with other racing attempts.
	st.loop.PredsInto(&st.mutPreds)
	st.loop.SuccsInto(&st.mutSuccs)
	st.preds = st.mutPreds
	st.succs = st.mutSuccs
	st.computeHeights()
	wl.fix()
	return added
}

// growOp extends the per-op state arrays for a newly added move operation
// pinned to the given cluster (the only kind the scheduler ever adds).
func (st *state) growOp(pinnedCluster int) {
	st.time = append(st.time, -1)
	st.cluster = append(st.cluster, -1)
	st.prevTime = append(st.prevTime, -1)
	st.pinned = append(st.pinned, pinnedCluster)
	st.never = append(st.never, true)
	st.height = append(st.height, 0)
	st.lat = append(st.lat, ir.KMove.Latency())
	st.class = append(st.class, machine.ClassOf(ir.KMove))
	st.wl.in = append(st.wl.in, false)
}

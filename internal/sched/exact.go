// The exact branch-and-bound searcher behind Options.Effort: optimal.
//
// For one candidate II the searcher answers the exact decision question:
// does ANY partitioned modulo schedule at this II exist? It branches over
// (cluster, row) assignments per operation in a fixed static order and
// prunes with the same packed machinery the heuristic scheduler uses
// (DESIGN.md §14):
//
//   - the bitset MRT row-full words (§13) reject saturated (row, cluster,
//     class) slots with one AND;
//   - the ring-adjacency cluster masks cut the cluster dimension to the
//     intersection of the placed flow neighbours' adjacency words;
//   - a forward occupancy check prunes a placement whose unplaced flow
//     neighbours would be left without any adjacent, capable, non-full
//     cluster (the resource-class occupancy bound);
//   - a difference-constraint propagation over stage potentials rejects
//     placements whose timing constraints form a positive-weight cycle —
//     the same positive-cycle criterion RecMII is built on (mii.go).
//
// The key to exactness without a schedule-length horizon: a row/cluster
// assignment extends to concrete start cycles t = row + II*k if and only if
// the stage counters k satisfy the difference constraints
// k[to] - k[from] >= ceil((L + row[from] - row[to]) / II) - dist for every
// dependence, which holds iff the constraint graph has no positive cycle.
// Rows and clusters are the only finite decisions; the unbounded time
// dimension is discharged by the cycle test, so an exhausted search is a
// proof that no schedule at this II exists, not merely that none was found
// within a horizon.
//
// Determinism: the static op order (height desc, ID asc), the candidate
// order (cluster asc, row asc) and the node budget are all independent of
// timing, so identical inputs explore the identical tree.
// Rotation symmetry is broken once: the first placed op is pinned to row 0,
// and — on machines whose clusters are identical — to cluster 0, since any
// schedule can be rotated in time and around the ring to such a
// representative.

package sched

import (
	"context"
	"math/bits"
	"sort"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// exactStatus is the outcome of one exact search (or subtree).
type exactStatus int

const (
	// exactFound: a complete placement exists; the searcher state holds it.
	exactFound exactStatus = iota
	// exactInfeasible: the search space is exhausted — a proof that no
	// schedule at this II exists (for a subtree: no completion exists).
	exactInfeasible
	// exactAborted: the node budget or the context deadline cut the search
	// before exhaustion; nothing is proved about this II.
	exactAborted
)

// exactSearcher is the per-loop search arena, reused across the II ladder
// of one certify call. It reads the loop, latencies, FU classes, CSR views,
// cluster masks and per-II heights from the call's loop facts.
type exactSearcher struct {
	*loopFacts
	cfg       *machine.Config
	ii        int
	symmetric bool // identical clusters: ring rotation is an automorphism

	order  []int32 // static placement order: height desc, then ID asc
	height []int   // the facts' heights at ii, read-only

	table  mrt
	placed []bool
	rowOf  []int32
	cluOf  []int32

	// Stage-potential state for the difference-constraint propagation.
	pot      []int   // k[i]: stage counter witness, >= 0
	pathLen  []int32 // relaxation walk length within the current epoch
	epoch    []int32 // propagation epoch a pathLen entry belongs to
	curEpoch int32
	queue    []int32
	undo     []potUndo

	ctx    context.Context
	budget int64
	nodes  int64 // placements tried this search (the budget unit)
	pruned int64 // candidate placements rejected by a pruning rule
	ctxCut bool  // the abort came from ctx, not the node budget
}

// potUndo records one potential overwrite so backtracking restores the
// exact pre-placement fixpoint.
type potUndo struct {
	id  int32
	pot int
}

// symmetricClusters reports whether every cluster is identical, in which
// case rotating cluster indices is an automorphism of the ring machine and
// the search may pin the first operation's cluster.
func symmetricClusters(cfg *machine.Config) bool {
	for i := 1; i < cfg.NumClusters(); i++ {
		if cfg.Clusters[i] != cfg.Clusters[0] {
			return false
		}
	}
	return true
}

// newExactSearcher builds the arena for the pristine loop the facts were
// bound to on cfg, the machine they were bound on. The caller guarantees
// NumClusters <= 64 (the packed-mask invariant).
func newExactSearcher(f *loopFacts, cfg *machine.Config) *exactSearcher {
	n := f.n
	ex := &exactSearcher{loopFacts: f, cfg: cfg}
	ex.symmetric = symmetricClusters(cfg)
	ex.order = make([]int32, n)
	ex.placed = make([]bool, n)
	ex.rowOf = make([]int32, n)
	ex.cluOf = make([]int32, n)
	ex.pot = make([]int, n)
	ex.pathLen = make([]int32, n)
	ex.epoch = make([]int32, n)
	return ex
}

// search runs the exact decision procedure for one II under a node budget
// and a context. On exactFound the searcher holds the complete placement
// (read it with schedule); on exactAborted, ctxCut tells a deadline cut
// from a budget cut.
func (ex *exactSearcher) search(ctx context.Context, ii int, budget int64) exactStatus {
	ex.ii = ii
	ex.ctx = ctx
	ex.budget = budget
	ex.nodes = 0
	ex.pruned = 0
	ex.ctxCut = false
	ex.undo = ex.undo[:0]
	ex.table.reset(ii, ex.cfg)
	for i := range ex.placed {
		ex.placed[i] = false
	}
	ex.height = ex.heightsFor(ii)
	for i := range ex.order {
		ex.order[i] = int32(i)
	}
	sort.Slice(ex.order, func(a, b int) bool {
		x, y := ex.order[a], ex.order[b]
		if ex.height[x] != ex.height[y] {
			return ex.height[x] > ex.height[y]
		}
		return x < y
	})
	return ex.dfs(0)
}

// clusterMask returns the clusters y may still occupy: those providing its
// FU class, intersected with the ring-adjacency words of its placed flow
// neighbours. A zero mask is a proof that no completion places y.
func (ex *exactSearcher) clusterMask(y int) uint64 {
	mask := ex.classMask[ex.class[y]]
	for _, d := range ex.preds.At(y) {
		if d.Kind == ir.Flow && d.From != y && ex.placed[d.From] {
			mask &= ex.adjMasks[ex.cluOf[d.From]]
		}
	}
	for _, d := range ex.succs.At(y) {
		if d.Kind == ir.Flow && d.To != y && ex.placed[d.To] {
			mask &= ex.adjMasks[ex.cluOf[d.To]]
		}
	}
	return mask
}

// dfs places order[depth] in every viable (cluster, row) slot and recurses.
// exactInfeasible from a subtree means "keep trying siblings"; exactFound
// and exactAborted unwind immediately (exactFound leaves the placement
// intact for schedule).
func (ex *exactSearcher) dfs(depth int) exactStatus {
	if depth == ex.n {
		return exactFound
	}
	x := int(ex.order[depth])
	mask := ex.clusterMask(x)
	rows := ex.ii
	if depth == 0 {
		// Symmetry: any schedule rotates in time so its first-ordered op
		// sits in row 0, and on an all-identical-clusters ring it also
		// rotates around the ring onto cluster 0.
		rows = 1
		if ex.symmetric && mask&1 != 0 {
			mask = 1
		}
	}
	if mask == 0 {
		ex.pruned++
		return exactInfeasible
	}
	class := ex.class[x]
	for m := mask; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		for r := 0; r < rows; r++ {
			if !ex.table.free(r, c, class) {
				ex.pruned++
				continue
			}
			ex.nodes++
			if ex.nodes > ex.budget {
				return exactAborted
			}
			if ex.nodes&1023 == 0 && ex.ctx.Err() != nil {
				ex.ctxCut = true
				return exactAborted
			}
			ex.table.add(r, c, class, x)
			ex.placed[x] = true
			ex.rowOf[x] = int32(r)
			ex.cluOf[x] = int32(c)
			mark := len(ex.undo)
			ok := ex.propagate(x) && ex.lookahead(x)
			if ok {
				if st := ex.dfs(depth + 1); st != exactInfeasible {
					return st
				}
			} else {
				ex.pruned++
			}
			for len(ex.undo) > mark {
				u := ex.undo[len(ex.undo)-1]
				ex.undo = ex.undo[:len(ex.undo)-1]
				ex.pot[u.id] = u.pot
			}
			ex.placed[x] = false
			ex.table.remove(r, c, class, x)
		}
	}
	return exactInfeasible
}

// weight is the stage-difference coefficient of dependence d between placed
// endpoints: the schedule needs pot[d.To] - pot[d.From] >= weight(d), with
// weight = ceil((L + row[from] - row[to]) / II) - dist and L including the
// cross-cluster communication latency for flow dependences.
func (ex *exactSearcher) weight(d ir.Dep) int {
	l := ex.lat[d.From]
	if d.Kind == ir.Flow && ex.cluOf[d.From] != ex.cluOf[d.To] {
		l += ex.cfg.CommLatency
	}
	return ceilDiv(l+int(ex.rowOf[d.From])-int(ex.rowOf[d.To]), ex.ii) - d.Dist
}

func ceilDiv(a, b int) int {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return -((-a) / b)
}

// propagate activates the constraints between x and the placed ops and
// restores the invariant pot[to] >= pot[from] + weight by queue-driven
// longest-path relaxation. It returns false when the placed subgraph
// acquires a positive-weight cycle — no stage assignment exists, so the
// placement is infeasible. Every potential overwrite lands in ex.undo; the
// caller unwinds to its mark on backtrack (including after a false return).
//
// Cycle detection: each relaxation extends a walk whose potentials strictly
// improve, so a walk of more than n edges revisits some vertex with a
// strictly larger potential — the sub-walk between the visits is a
// positive cycle. pathLen counts the walk edges per propagation epoch.
func (ex *exactSearcher) propagate(x int) bool {
	ex.curEpoch++
	ex.undo = append(ex.undo, potUndo{int32(x), ex.pot[x]})
	ex.pot[x] = 0
	for _, d := range ex.preds.At(x) {
		if !ex.placed[d.From] {
			continue
		}
		if d.From == x {
			// Self dependence: feasible iff its weight is non-positive.
			if ex.weight(d) > 0 {
				return false
			}
			continue
		}
		if nd := ex.pot[d.From] + ex.weight(d); nd > ex.pot[x] {
			ex.pot[x] = nd
		}
	}
	ex.epoch[x] = ex.curEpoch
	ex.pathLen[x] = 0
	q := append(ex.queue[:0], int32(x))
	for head := 0; head < len(q); head++ {
		y := int(q[head])
		for _, d := range ex.succs.At(y) {
			v := d.To
			if !ex.placed[v] {
				continue
			}
			nd := ex.pot[y] + ex.weight(d)
			if nd <= ex.pot[v] {
				continue
			}
			var pl int32
			if ex.epoch[y] == ex.curEpoch {
				pl = ex.pathLen[y]
			}
			pl++
			if int(pl) > ex.n {
				ex.queue = q[:0]
				return false
			}
			ex.undo = append(ex.undo, potUndo{int32(v), ex.pot[v]})
			ex.pot[v] = nd
			ex.epoch[v] = ex.curEpoch
			ex.pathLen[v] = pl
			q = append(q, int32(v))
		}
	}
	ex.queue = q[:0]
	return true
}

// lookahead forward-checks x's unplaced flow neighbours after placing x:
// each must still have a cluster that is adjacent to all of its placed
// flow neighbours, provides its FU class, and has at least one non-full
// row. This is the occupancy lower bound of the search: a violation means
// no completion of the current partial placement exists.
func (ex *exactSearcher) lookahead(x int) bool {
	for _, d := range ex.preds.At(x) {
		if d.Kind == ir.Flow && d.From != x && !ex.placed[d.From] && !ex.viable(d.From) {
			return false
		}
	}
	for _, d := range ex.succs.At(x) {
		if d.Kind == ir.Flow && d.To != x && !ex.placed[d.To] && !ex.viable(d.To) {
			return false
		}
	}
	return true
}

// viable reports whether unplaced op y still has a candidate slot.
func (ex *exactSearcher) viable(y int) bool {
	mask := ex.clusterMask(y)
	if mask == 0 {
		return false
	}
	for m := mask; m != 0; m &= m - 1 {
		if ex.table.anyFree(bits.TrailingZeros64(m), ex.class[y]) {
			return true
		}
	}
	return false
}

// schedule materializes the found placement: per-op start cycles
// row + II*k with the stage counters k recovered from the propagation
// potentials, normalized so the earliest stage is zero.
func (ex *exactSearcher) schedule(cfg machine.Config, ii, resMII, recMII int) *Schedule {
	shift := ex.pot[0]
	for _, p := range ex.pot {
		if p < shift {
			shift = p
		}
	}
	time := make([]int, ex.n)
	cluster := make([]int, ex.n)
	for i := 0; i < ex.n; i++ {
		time[i] = int(ex.rowOf[i]) + ii*(ex.pot[i]-shift)
		cluster[i] = int(ex.cluOf[i])
	}
	return &Schedule{
		Loop:    ex.loop,
		Machine: cfg,
		II:      ii,
		Time:    time,
		Cluster: cluster,
		ResMII:  resMII,
		RecMII:  recMII,
	}
}

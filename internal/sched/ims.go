package sched

import (
	"math/bits"
	"sync"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// state carries one scheduling run. A run makes several II attempts; each
// attempt works on per-op arrays restored to their pristine values. The
// state is a reusable scratch arena: every slice, the modulo reservation
// table and the worklist keep their storage across II attempts and — via
// statePool — across ScheduleLoop calls, so the hot path of an attempt
// allocates only when the loop grows past any previously seen size.
//
// Cross-attempt reuse goes further than storage: facts that depend only on
// the pristine loop — the CSR precedence views, the per-op latency and FU
// class tables, the per-cluster adjacency masks — are computed once per run
// and shared by every II attempt. The working loop aliases the input
// (copy-on-write): only an attempt that actually inserts move operations
// pays for private op/dep copies and a CSR rebuild (detach, moves.go).
// When a portfolio tries several strategies on one loop, the same facts are
// shared across those attempts through a raceMemo (memo.go).
type state struct {
	orig        *ir.Loop
	loop        *ir.Loop // working view; ops are shared, never mutated
	cfg         machine.Config
	budgetRatio int
	strat       Strategy // cluster-preference policy for this run
	memo        *raceMemo
	ref         bool // route probes through the scalar reference (ref.go)
	mutated     bool // move ops inserted: loop/CSR detached from the input

	ii       int
	ordinal  int   // 1-based position of the current attempt, drives the budget multiplier
	time     []int // issue cycle, -1 = unscheduled
	cluster  []int
	prevTime []int // last forced placement, for Rau's progress rule
	never    []bool
	pinned   []int // fixed cluster for inserted moves, -1 otherwise
	height   []int
	preds    ir.Adj // working views: alias basePreds/baseSuccs until detach
	succs    ir.Adj
	table    mrt
	load     []int // cached per-cluster reservation counts
	allowed  []int // compact-mode cluster subset (nil = free placement)

	// Pristine-loop facts, valid for every attempt until detach.
	basePreds ir.Adj // header copies: own CSR, or the raceMemo's shared one
	baseSuccs ir.Adj
	ownPreds  ir.Adj // private CSR arenas for memo-less runs
	ownSuccs  ir.Adj
	mutPreds  ir.Adj // private CSR arenas rebuilt after move insertion
	mutSuccs  ir.Adj
	opsArena  []*ir.Op // copy-on-write buffers for detach
	depsArena []ir.Dep
	lat       []int                      // per-op latency: ownLat, or the raceMemo's shared table
	class     []machine.FUClass          // per-op FU class: ownClass, or the raceMemo's
	adjMasks  []uint64                   // per-cluster bitmask of ring-adjacent clusters
	allMask   uint64                     // low NumClusters bits set
	classMask [machine.NumClasses]uint64 // per-class bitmask of clusters providing it
	ownLat    []int                      // private arenas backing the above for memo-less runs:
	ownClass  []machine.FUClass          // a memo-bound header must never be refilled in place,
	ownAdj    []uint64                   // the memo may already be pooled and rebound elsewhere
	wl        worklist
	prefBuf   []clusterPref // scratch for the reference preference ordering (ref.go)
	prefOut   []int         // scratch for the returned preference order
	pathBuf   []int         // scratch for move-chain ring paths
	settleBuf []ir.Dep      // scratch for settle's edge snapshot
	iiBuf     []int         // scratch for the candidate-II sequence
	minTBuf   []int         // per-cluster earliest cycle, per findSlot call
	adjBuf    []bool        // per-cluster ring-adjacency verdict (ref path)
	rec       recScratch    // RecMII scratch (mii.go)

	stats Stats
}

// statePool recycles scheduling arenas across ScheduleLoop calls; the
// experiment pipeline schedules tens of thousands of loops back to back and
// the arena slices are the dominant allocation otherwise.
var statePool = sync.Pool{New: func() any { return new(state) }}

// init binds the arena to a new input loop, reusing all prior storage.
// memo, when non-nil, supplies the shared pristine-loop facts of a
// portfolio search; ref routes feasibility probes through the scalar
// reference implementation (the differential harness's toggle).
func (st *state) init(l *ir.Loop, cfg machine.Config, budgetRatio int, strat Strategy, memo *raceMemo, ref bool) {
	st.orig = l
	st.cfg = cfg
	st.budgetRatio = budgetRatio
	st.strat = strat
	st.memo = memo
	st.ordinal = 0
	st.stats = Stats{}
	if st.loop == nil {
		st.loop = &ir.Loop{}
	}
	st.loop.Name = l.Name
	st.loop.Trip = l.Trip
	st.loop.Unroll = l.Unroll

	n := len(l.Ops)
	nc := cfg.NumClusters()
	// The packed adjacency masks hold one bit per cluster; machines wider
	// than a word fall back to the scalar reference wholesale (the bitset
	// fast path gains nothing there anyway).
	st.ref = ref || nc > 64
	if memo != nil {
		// Share every pristine-loop and machine fact the memo computed
		// once. The three-index cap on lat/class forces any growOp append
		// to reallocate privately instead of writing into shared storage.
		st.lat = memo.lat[:n:n]
		st.class = memo.class[:n:n]
		st.adjMasks = memo.adjMasks
		st.allMask = memo.allMask
		st.classMask = memo.classMask
		st.basePreds, st.baseSuccs = memo.preds, memo.succs
		st.reset()
		return
	}
	st.ownLat = refill(st.ownLat, n, 0)
	st.ownClass = refill(st.ownClass, n, 0)
	for i, op := range l.Ops {
		st.ownLat[i] = op.Kind.Latency()
		st.ownClass[i] = machine.ClassOf(op.Kind)
	}
	st.lat, st.class = st.ownLat, st.ownClass
	if !st.ref {
		st.ownAdj = refill(st.ownAdj, nc, 0)
		st.allMask, st.classMask = maskInto(st.ownAdj, &cfg)
		st.adjMasks = st.ownAdj
	}
	l.PredsInto(&st.ownPreds)
	l.SuccsInto(&st.ownSuccs)
	st.basePreds, st.baseSuccs = st.ownPreds, st.ownSuccs
	st.reset()
}

// maskInto fills adj (length NumClusters) with the per-cluster ring
// adjacency bitmasks and returns the all-clusters mask and the per-class
// masks of clusters providing each FU class. Only meaningful for machines
// of at most 64 clusters (one bit per cluster).
func maskInto(adj []uint64, cfg *machine.Config) (uint64, [machine.NumClasses]uint64) {
	nc := cfg.NumClusters()
	for a := 0; a < nc; a++ {
		var m uint64
		for b := 0; b < nc; b++ {
			if cfg.Adjacent(a, b) {
				m |= 1 << uint(b)
			}
		}
		adj[a] = m
	}
	all := ^uint64(0)
	if nc < 64 {
		all = 1<<uint(nc) - 1
	}
	var cm [machine.NumClasses]uint64
	for class := machine.FUClass(0); class < machine.NumClasses; class++ {
		var m uint64
		for c := 0; c < nc; c++ {
			if cfg.FUCount(c, class) > 0 {
				m |= 1 << uint(c)
			}
		}
		cm[class] = m
	}
	return all, cm
}

// reset prepares a fresh attempt on the pristine input loop. Op structs are
// shared with the input (the scheduler never mutates them); the working op
// and dependence views alias the input outright, so an attempt that
// inserted move operations only has to drop its private copies (keeping
// their storage for the next detach) and re-point at the input.
func (st *state) reset() {
	st.allowed = nil
	if st.mutated {
		// Recapture the grown copy-on-write buffers so the next detach
		// reuses their high-water capacity, then restore the pristine view.
		st.opsArena = st.loop.Ops[:0]
		st.depsArena = st.loop.Deps[:0]
		st.mutated = false
	}
	st.loop.Ops = st.orig.Ops
	st.loop.Deps = st.orig.Deps
	n := len(st.loop.Ops)
	st.time = refill(st.time, n, -1)
	st.cluster = refill(st.cluster, n, -1)
	st.prevTime = refill(st.prevTime, n, -1)
	st.pinned = refill(st.pinned, n, -1)
	st.never = refill(st.never, n, true)
	st.preds = st.basePreds
	st.succs = st.baseSuccs
}

// detach gives the working loop private op and dependence storage before
// the first mutation of an attempt (move insertion). Until detach the
// working views alias the input, so the common no-moves attempt never
// copies the loop at all.
func (st *state) detach() {
	if st.mutated {
		return
	}
	st.mutated = true
	st.opsArena = append(st.opsArena[:0], st.loop.Ops...)
	st.loop.Ops = st.opsArena
	st.depsArena = append(st.depsArena[:0], st.loop.Deps...)
	st.loop.Deps = st.depsArena
}

// refill returns s resized to n with every element set to v, reusing the
// backing array when it is large enough.
func refill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = v
	}
	return s
}

// uninit returns s resized to n WITHOUT clearing: the contents are
// unspecified and the caller overwrites every element before reading it.
// Scratch arrays that are fully rewritten each use (counting-sort outputs,
// Tarjan low/comp, Bellman-Ford distances reset per component) take this
// path to skip refill's clear pass.
func uninit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// tryII attempts to schedule every operation at the given II within the
// budget. It returns true on success, leaving the placement in st.time and
// st.cluster. Later attempts get a progressively larger budget: when the
// first IIs fail because of partitioning conflicts, raw persistence at a
// slightly larger II is usually what finds the schedule.
func (st *state) tryII(ii int) bool {
	st.ii = ii
	st.table.reset(ii, &st.cfg)
	st.load = refill(st.load, st.cfg.NumClusters(), 0)
	st.computeHeights()

	wl := &st.wl
	wl.fill(st, len(st.loop.Ops))
	mult := st.ordinal
	if mult < 1 {
		mult = 1
	}
	if mult > 4 {
		mult = 4
	}
	budget := st.budgetRatio * len(st.loop.Ops) * mult
	for wl.Len() > 0 {
		if budget <= 0 {
			return false
		}
		budget--
		id := wl.pop()
		st.stats.Placements++
		t, c, estart, ok := st.findSlot(id)
		if !ok {
			if t, c, ok = st.forceSlot(id, estart, wl); !ok {
				// No cluster can ever host the op (or nothing occupies the
				// conflicting slot): the attempt is unschedulable.
				return false
			}
		}
		st.place(id, t, c)
		budget += st.settle(id, wl) * st.budgetRatio
	}
	return true
}

// earliestStart returns the earliest issue cycle permitted by the scheduled
// predecessors of id (ignoring communication latency, which findSlot folds
// into its per-cluster earliest-cycle bound).
func (st *state) earliestStart(id int) int {
	estart := 0
	for _, d := range st.preds.At(id) {
		if tf := st.time[d.From]; tf >= 0 {
			if e := tf + st.lat[d.From] - st.ii*d.Dist; e > estart {
				estart = e
			}
		}
	}
	return estart
}

// findSlot searches the II-wide window from the op's earliest start for a
// (time, cluster) placement that satisfies resources, scheduled-predecessor
// timing (including communication latency) and the ring adjacency rule.
// When the machine allows moves, a second pass accepts non-adjacent
// clusters (moves are inserted later by settle). It returns the slot and
// the earliest start it derived (the caller's forceSlot needs it on
// failure).
//
// Feasibility splits into per-op facts (earliest start, per-cluster
// scheduled flow-neighbour counts, ring adjacency to those neighbours) and
// the per-cycle fact (a free FU in the reservation table). The per-op
// facts are gathered in ONE walk over the op's edge lists — the reference
// implementation re-walks them once per candidate cluster — and the
// adjacency verdicts compress to a word: the AND of the precomputed
// per-cluster masks of every cluster holding a scheduled flow neighbour.
// The whole per-cycle scan collapses to one firstFree bitmap probe per
// cluster. The historical scan visited (cycle, cluster) pairs
// lexicographically — cycle ascending, then preference order — so taking,
// over the candidate clusters, the minimum earliest feasible cycle (ties
// to the earlier preference position) reproduces its choice exactly; the
// differential harness (ref.go) pins that equivalence on every probe.
func (st *state) findSlot(id int) (int, int, int, bool) {
	if st.ref {
		estart := st.earliestStart(id)
		t, c, ok := st.findSlotRef(id, estart)
		return t, c, estart, ok
	}
	nc := st.cfg.NumClusters()
	var cntArr [64]int32 // nc <= 64 on the packed path (init falls back otherwise)
	cnt := cntArr[:nc]
	estart := 0
	for _, d := range st.preds.At(id) {
		tf := st.time[d.From]
		if tf < 0 {
			continue
		}
		if e := tf + st.lat[d.From] - st.ii*d.Dist; e > estart {
			estart = e
		}
		if d.Kind == ir.Flow {
			cnt[st.cluster[d.From]]++
		}
	}
	for _, d := range st.succs.At(id) {
		if d.Kind == ir.Flow && st.time[d.To] >= 0 {
			cnt[st.cluster[d.To]]++
		}
	}
	adjMask := st.allMask
	for x := 0; x < nc; x++ {
		if cnt[x] > 0 {
			adjMask &= st.adjMasks[x]
		}
	}
	class := st.class[id]
	pinned := st.pinned[id]
	passes := 1
	if st.cfg.AllowMoves && pinned < 0 {
		passes = 2
	}
	end := estart + st.ii
	comm := st.cfg.CommLatency
	if st.allowed != nil {
		// Compact fallback: the candidate order is the position in the
		// mutually adjacent subset, so the historical ordered scan with its
		// cannot-beat-the-incumbent skip applies directly.
		prefs := st.allowedPrefs(class)
		for pass := 0; pass < passes; pass++ {
			requireAdj := pass == 0
			bestT, bestC := -1, -1
			for _, c := range prefs {
				if pinned >= 0 && c != pinned {
					continue
				}
				if requireAdj && adjMask>>uint(c)&1 == 0 {
					continue
				}
				t0 := estart
				if comm > 0 {
					t0 = st.minTFor(id, c)
				}
				if bestT >= 0 && t0 >= bestT {
					continue
				}
				if t, ok := st.table.firstFree(t0, end, c, class); ok && (bestT < 0 || t < bestT) {
					bestT, bestC = t, c
				}
			}
			if bestT >= 0 {
				return bestT, bestC, estart, true
			}
		}
		return 0, 0, estart, false
	}
	// Free placement: take the argmin over feasible candidates of
	// (cycle, strategy key) — minimal cycle, ties to the key that sorts
	// first. The reference scan walks (cycle, preference-position)
	// lexicographically, and preference position is exactly key rank, so
	// the argmin is the same slot without ever ordering the candidates;
	// keys are computed lazily, only when a candidate survives the cycle
	// comparison.
	for pass := 0; pass < passes; pass++ {
		requireAdj := pass == 0
		bestT, bestC := -1, -1
		var bestKey clusterPref
		for m := st.classMask[class]; m != 0; m &= m - 1 {
			c := bits.TrailingZeros64(m)
			if pinned >= 0 && c != pinned {
				continue
			}
			if requireAdj && adjMask>>uint(c)&1 == 0 {
				continue
			}
			t0 := estart
			if comm > 0 {
				t0 = st.minTFor(id, c)
			}
			if bestC >= 0 {
				if t0 > bestT {
					continue // cannot reach the incumbent's cycle
				}
				if t0 == bestT {
					p := st.prefKey(id, c, cnt)
					if !p.before(bestKey) {
						continue // could only tie, and loses the tie-break
					}
					if t, ok := st.table.firstFree(t0, end, c, class); ok && t == bestT {
						bestC, bestKey = c, p
					}
					continue
				}
			}
			t, ok := st.table.firstFree(t0, end, c, class)
			if !ok {
				continue
			}
			if bestC < 0 || t < bestT {
				bestT, bestC, bestKey = t, c, st.prefKey(id, c, cnt)
			} else if t == bestT {
				if p := st.prefKey(id, c, cnt); p.before(bestKey) {
					bestC, bestKey = c, p
				}
			}
		}
		if bestC >= 0 {
			return bestT, bestC, estart, true
		}
	}
	return 0, 0, estart, false
}

// minTFor returns the earliest cycle at which cluster c can issue op id
// given its scheduled predecessors, folding in the communication latency
// of cross-cluster flow values. It is always >= earliestStart, so callers
// on comm-latency machines use it as the per-cluster window start
// directly.
func (st *state) minTFor(id, c int) int {
	req := 0
	for _, d := range st.preds.At(id) {
		tf := st.time[d.From]
		if tf < 0 {
			continue
		}
		lat := st.lat[d.From]
		if d.Kind == ir.Flow && st.cluster[d.From] != c {
			lat += st.cfg.CommLatency
		}
		if r := tf + lat - st.ii*d.Dist; r > req {
			req = r
		}
	}
	return req
}

// prefKey computes one cluster's strategy-specific ranking key (see the
// Strategy catalogue in strategy.go; StrategyBaseline reproduces the
// historical order exactly) from the per-cluster scheduled flow-neighbour
// counts.
func (st *state) prefKey(id, c int, cnt []int32) clusterPref {
	p := clusterPref{c: c}
	neigh := int(cnt[c])
	switch st.strat {
	case StrategyLoadBalanced:
		p.k1, p.k2 = st.load[c], -neigh
	case StrategyAffinity:
		commDist := 0
		for x := range cnt {
			if cnt[x] > 0 {
				commDist += int(cnt[x]) * st.cfg.RingDistance(x, c)
			}
		}
		p.k1, p.k2 = commDist, -neigh
	case StrategyRoundRobin:
		p.k1 = st.cfg.RingDistance(id%st.cfg.NumClusters(), c)
	case StrategyPerturb:
		h := prefHash(id, c)
		p.k1, p.k2, p.k3 = -neigh, st.load[c]+int(h&1), int(h>>1&0xffff)
	default: // StrategyBaseline
		p.k1, p.k2 = -neigh, st.load[c]
	}
	return p
}

// allowedPrefs is the compact fallback's cluster ordering: placement
// restricted to a mutually adjacent cluster subset, making the ring rule
// trivial. If the subset lacks the class entirely, fall back to the lowest
// cluster providing it.
func (st *state) allowedPrefs(class machine.FUClass) []int {
	out := st.prefOut[:0]
	for _, c := range st.allowed {
		if st.cfg.FUCount(c, class) > 0 {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		for c := 0; c < st.cfg.NumClusters(); c++ {
			if st.cfg.FUCount(c, class) > 0 {
				out = append(out, c)
				break
			}
		}
	}
	st.prefOut = out
	return out
}

// forceSlot is Rau's conflict-driven placement: when no conflict-free slot
// exists in the window, place anyway — at estart for never-scheduled ops,
// otherwise strictly later than the previous placement to guarantee
// progress — and evict whatever stands in the way. The false return covers
// the unschedulable degenerate cases: no cluster offers the op's FU class,
// or the conflicting slot has no occupant to evict (a zero-FU slot).
func (st *state) forceSlot(id, estart int, wl *worklist) (int, int, bool) {
	t := estart
	if !st.never[id] && st.prevTime[id]+1 > t {
		t = st.prevTime[id] + 1
	}
	class := st.class[id]
	if p := st.pinned[id]; p >= 0 {
		if st.slotFree(t%st.ii, p, class) {
			return t, p, true
		}
		return st.evictLowest(t, p, class, wl)
	}
	if st.ref {
		// Reference path: ordered preference list, first cluster with a
		// free unit at this row, else evict from the top preference.
		prefs := st.clusterPrefsRef(id)
		if len(prefs) == 0 {
			return 0, 0, false
		}
		for _, c := range prefs {
			if st.table.freeScalar(t%st.ii, c, class) {
				return t, c, true
			}
		}
		return st.evictLowest(t, prefs[0], class, wl)
	}
	row := t % st.ii
	if st.allowed != nil {
		// Compact fallback: positional order — first subset cluster with a
		// free unit, else evict from the subset head.
		prefs := st.allowedPrefs(class)
		if len(prefs) == 0 {
			return 0, 0, false
		}
		for _, c := range prefs {
			if st.table.free(row, c, class) {
				return t, c, true
			}
		}
		return st.evictLowest(t, prefs[0], class, wl)
	}
	// Packed path: "first preference with a free unit" is the minimal key
	// among free candidates, and "the first preference" is the minimal key
	// overall — one unsorted scan finds both.
	nc := st.cfg.NumClusters()
	var cntArr [64]int32 // nc <= 64 on the packed path (init falls back otherwise)
	cnt := cntArr[:nc]
	for _, d := range st.preds.At(id) {
		if d.Kind == ir.Flow && st.time[d.From] >= 0 {
			cnt[st.cluster[d.From]]++
		}
	}
	for _, d := range st.succs.At(id) {
		if d.Kind == ir.Flow && st.time[d.To] >= 0 {
			cnt[st.cluster[d.To]]++
		}
	}
	freeC, allC := -1, -1
	var freeKey, allKey clusterPref
	for m := st.classMask[class]; m != 0; m &= m - 1 {
		c := bits.TrailingZeros64(m)
		p := st.prefKey(id, c, cnt)
		if allC < 0 || p.before(allKey) {
			allC, allKey = c, p
		}
		if st.table.free(row, c, class) && (freeC < 0 || p.before(freeKey)) {
			freeC, freeKey = c, p
		}
	}
	if allC < 0 {
		return 0, 0, false
	}
	if freeC >= 0 {
		return t, freeC, true
	}
	return st.evictLowest(t, allC, class, wl)
}

// evictLowest evicts the lowest-priority occupant (minimal height, then
// lowest ID — the occupant lists are ID-ordered by construction) of the
// (t mod II, cluster, class) slot and claims it for the caller. It fails
// only on a zero-FU slot, which has nothing to evict.
func (st *state) evictLowest(t, c int, class machine.FUClass, wl *worklist) (int, int, bool) {
	occ := st.table.occupants(t%st.ii, c, class)
	if len(occ) == 0 {
		return 0, 0, false
	}
	victim := occ[0]
	for _, o := range occ {
		if st.height[o] < st.height[victim] {
			victim = o
		}
	}
	st.evict(victim, wl)
	return t, c, true
}

// slotFree probes one (row, cluster, class) slot, through the scalar
// reference when the run is pinned to it.
func (st *state) slotFree(row, cluster int, class machine.FUClass) bool {
	if st.ref {
		return st.table.freeScalar(row, cluster, class)
	}
	return st.table.free(row, cluster, class)
}

// place commits op id to (t, c) in the reservation table.
func (st *state) place(id, t, c int) {
	st.time[id] = t
	st.cluster[id] = c
	st.prevTime[id] = t
	st.never[id] = false
	st.table.add(t%st.ii, c, st.class[id], id)
	st.load[c]++
}

// evict unschedules op id and requeues it.
func (st *state) evict(id int, wl *worklist) {
	if st.time[id] < 0 {
		return
	}
	st.table.remove(st.time[id]%st.ii, st.cluster[id], st.class[id], id)
	st.load[st.cluster[id]]--
	st.time[id] = -1
	st.cluster[id] = -1
	st.stats.Evictions++
	wl.push(id)
}

// settle resolves the consequences of placing op id: it evicts scheduled
// neighbours whose dependence constraints the new placement violates and —
// when moves are allowed — replaces non-adjacent flow dependences with
// chains of pinned move operations. It returns the number of operations
// added to the loop (so the caller can extend the budget).
//
// Without moves the three historical passes (violated successors, comm-
// violated predecessors, non-adjacent neighbours) fuse into one walk per
// edge list. The fusion is exact: an eviction only clears a placement —
// it never changes the cluster of an op that stays placed — so every
// per-edge verdict is the same whenever it is evaluated, evict is
// idempotent, and the evicted SET is the union of the same conditions.
// The worklist orders by a total key (height desc, ID asc), so its pop
// sequence depends only on that set, not on insertion order; the digest
// and differential tests pin this equivalence.
func (st *state) settle(id int, wl *worklist) int {
	if st.ref || st.cfg.AllowMoves {
		return st.settleSlow(id, wl)
	}
	t, c := st.time[id], st.cluster[id]
	lat := st.lat[id]
	comm := st.cfg.CommLatency
	for _, d := range st.succs.At(id) {
		ts := st.time[d.To]
		if ts < 0 {
			continue
		}
		if d.Kind == ir.Flow && st.cluster[d.To] != c {
			if st.adjMasks[c]>>uint(st.cluster[d.To])&1 == 0 {
				st.evict(d.To, wl)
				continue
			}
			if ts+st.ii*d.Dist < t+lat+comm {
				st.evict(d.To, wl)
			}
			continue
		}
		if ts+st.ii*d.Dist < t+lat {
			st.evict(d.To, wl)
		}
	}
	for _, d := range st.preds.At(id) {
		if d.Kind != ir.Flow {
			continue
		}
		tf := st.time[d.From]
		if tf < 0 || st.cluster[d.From] == c {
			continue
		}
		if st.adjMasks[c]>>uint(st.cluster[d.From])&1 == 0 {
			st.evict(d.From, wl)
			continue
		}
		if comm > 0 && t+st.ii*d.Dist < tf+st.lat[d.From]+comm {
			st.evict(d.From, wl)
		}
	}
	return 0
}

// settleSlow is the reference/three-pass settle, required whenever the run
// is pinned to the scalar reference or the machine allows move insertion
// (insertMoveChain rebuilds the adjacency views mid-pass, which the fused
// walk cannot tolerate).
func (st *state) settleSlow(id int, wl *worklist) int {
	t, c := st.time[id], st.cluster[id]
	lat := st.lat[id]
	// Dependence-violated successors are evicted (they will be rescheduled
	// later at a feasible time).
	for _, d := range st.succs.At(id) {
		ts := st.time[d.To]
		if ts < 0 {
			continue
		}
		l := lat
		if d.Kind == ir.Flow && st.cluster[d.To] != c {
			l += st.cfg.CommLatency
		}
		if ts+st.ii*d.Dist < t+l {
			st.evict(d.To, wl)
		}
	}
	// Predecessors can only be violated through communication latency
	// (earliestStart covered the base latency).
	if st.cfg.CommLatency > 0 {
		for _, d := range st.preds.At(id) {
			tf := st.time[d.From]
			if tf < 0 || d.Kind != ir.Flow || st.cluster[d.From] == c {
				continue
			}
			if t+st.ii*d.Dist < tf+st.lat[d.From]+st.cfg.CommLatency {
				st.evict(d.From, wl)
			}
		}
	}
	// Ring adjacency. The op's edges are snapshotted first: insertMoveChain
	// rebuilds the adjacency views in place, which would otherwise clobber
	// the edge lists mid-iteration and leak this placement's new move edges
	// into the same pass.
	edges := st.settleBuf[:0]
	edges = append(edges, st.preds.At(id)...)
	edges = append(edges, st.succs.At(id)...)
	st.settleBuf = edges
	added := 0
	for _, d := range edges {
		if d.Kind != ir.Flow {
			continue
		}
		other := d.From + d.To - id // the other endpoint
		if st.time[other] < 0 || st.cfg.Adjacent(st.cluster[d.From], st.cluster[d.To]) {
			continue
		}
		if st.cfg.AllowMoves {
			added += st.insertMoveChain(d, wl)
		} else {
			st.evict(other, wl)
		}
	}
	return added
}

// computeHeights computes Rau's height-based priority: the length of the
// longest latency path from the issue of each op to the end of the
// iteration, with loop-carried edges discounted by II*distance. With
// II >= RecMII there is no positive cycle, so the fixpoint converges within
// numOps passes.
//
// Heights depend only on the pristine graph and the II, so a portfolio
// search computes them once per II in the shared raceMemo and every
// strategy copies the result; only an attempt that grew the graph with
// move operations recomputes privately.
func (st *state) computeHeights() {
	if !st.mutated && st.memo != nil {
		st.height = append(st.height[:0], st.memo.heightsFor(st.ii)...)
		return
	}
	st.height = heightsInto(st.height, st.lat, st.loop.Deps, st.ii, len(st.loop.Ops))
}

// heightsInto computes the height fixpoint into h (reusing its storage):
// each op starts at its own latency and relaxes upward along dependences
// discounted by II*distance. The fixpoint is the unique least solution of
// the max-path equations, so the result is independent of the order deps
// are visited in — only the pass count varies. Each pass walks the list
// BACKWARD: height relaxes h[From] from h[To], and dependence lists are in
// practice emitted close to topological order (producers before consumers),
// so the reverse walk sees consumers sinks-first and the acyclic part
// converges in one pass plus one verification pass instead of one pass per
// path level. Adversarial orders still converge within the n+1-pass bound.
func heightsInto(h, lat []int, deps []ir.Dep, ii, n int) []int {
	h = refill(h, n, 0)
	copy(h, lat[:n])
	for iter := 0; iter < n+1; iter++ {
		changed := false
		for i := len(deps) - 1; i >= 0; i-- {
			d := deps[i]
			if v := h[d.To] + lat[d.From] - ii*d.Dist; v > h[d.From] {
				h[d.From] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return h
}

// worklist is a max-heap of unscheduled op IDs ordered by height (ties by
// lower ID for determinism). Membership is tracked in a flat bool array so
// an op is never queued twice. The heap is hand-rolled — container/heap
// boxes every pushed ID into an interface — but replicates container/heap's
// sift algorithms exactly, so the pop order is bit-for-bit the same. Its
// storage lives in the state arena and is reused across attempts.
//
// The comparison key is packed into one word per entry:
// height<<32 | ^id. Heights are non-negative path lengths (far below
// 2^31), so a single uint64 compare realises exactly (height desc, ID asc)
// without the two dependent loads per comparison the indirect form costs.
// Keys are recomputed wholesale by fix() when the heights change.
type worklist struct {
	st   *state
	ids  []int
	keys []uint64 // parallel to ids: height[id]<<32 | ^uint32(id)
	in   []bool
}

// reset empties the worklist and sizes the membership array for n ops.
func (w *worklist) reset(st *state, n int) {
	w.st = st
	w.ids = w.ids[:0]
	w.keys = w.keys[:0]
	w.in = refill(w.in, n, false)
}

// fill seeds the worklist with every op ID in one O(n) heapify pass
// (sequential pushes cost O(n log n)). The internal heap layout differs
// from a push-built heap, but each pop extracts the unique maximum of a
// total order, so the pop sequence — the only observable — is identical.
func (w *worklist) fill(st *state, n int) {
	w.st = st
	w.in = refill(w.in, n, true)
	w.ids = w.ids[:0]
	w.keys = w.keys[:0]
	for id := 0; id < n; id++ {
		w.ids = append(w.ids, id)
		w.keys = append(w.keys, w.key(id))
	}
	for i := n/2 - 1; i >= 0; i-- {
		w.down(i, n)
	}
}

func (w *worklist) Len() int { return len(w.ids) }

func (w *worklist) key(id int) uint64 {
	return uint64(uint32(w.st.height[id]))<<32 | uint64(^uint32(id))
}

// less reports whether heap slot i sorts before slot j (a max-heap on
// height, ties by lower ID — one packed compare).
func (w *worklist) less(i, j int) bool { return w.keys[i] > w.keys[j] }

func (w *worklist) swap(i, j int) {
	w.ids[i], w.ids[j] = w.ids[j], w.ids[i]
	w.keys[i], w.keys[j] = w.keys[j], w.keys[i]
}

// fix restores the heap invariant over the whole array (used after the
// priorities change wholesale when the move extension grows the graph).
// The packed keys cache the heights, so they are rebuilt first.
func (w *worklist) fix() {
	for i, id := range w.ids {
		w.keys[i] = w.key(id)
	}
	n := len(w.ids)
	for i := n/2 - 1; i >= 0; i-- {
		w.down(i, n)
	}
}

func (w *worklist) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !w.less(j, i) {
			break
		}
		w.swap(i, j)
		j = i
	}
}

func (w *worklist) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && w.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !w.less(j, i) {
			break
		}
		w.swap(i, j)
		i = j
	}
}

func (w *worklist) push(id int) {
	if w.in[id] {
		return
	}
	w.in[id] = true
	w.ids = append(w.ids, id)
	w.keys = append(w.keys, w.key(id))
	w.up(len(w.ids) - 1)
}

func (w *worklist) pop() int {
	n := len(w.ids) - 1
	w.swap(0, n)
	w.down(0, n)
	id := w.ids[n]
	w.ids = w.ids[:n]
	w.keys = w.keys[:n]
	w.in[id] = false
	return id
}

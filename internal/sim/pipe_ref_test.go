package sim

import (
	"fmt"
	"slices"
	"sort"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// pipelinedRef is the map-based simulator Pipelined replaced, kept as the
// test-only reference the differential harness (differential_test.go)
// checks the dense template walk against: it rebuilds the timeline as a
// map of cycles to events and keeps values, queues and stores in maps, one
// cycle at a time. Apart from walking queues in (location, queue) order for
// the depth and drain checks and returning its store map as a sorted
// slice, it is the previous production code unchanged.
//
// referenceMap and compareStoresMap are likewise the map-based Reference
// and CompareStores that the key-ordered store slabs replaced;
// verifyPipelineRef composes the three the way VerifyPipeline used to.

type qid struct {
	loc queue.Location
	q   int
}

type event struct {
	write bool
	// writes
	q     qid
	dep   ir.Dep
	depIx int
	prodK int
	// issues
	op int
	k  int
}

// sortedQids returns the map's queues in (kind, from, to, queue) order,
// the order Allocation.Verify checks queues in.
func sortedQids(queues map[qid][]tagged) []qid {
	qs := make([]qid, 0, len(queues))
	for q := range queues {
		qs = append(qs, q)
	}
	slices.SortFunc(qs, func(a, b qid) int { return cmpQueue(a.loc, a.q, b.loc, b.q) })
	return qs
}

// refDrained is the reference's drain check: the first non-empty queue in
// (location, queue) order.
func refDrained(queues map[qid][]tagged) error {
	for _, q := range sortedQids(queues) {
		if fifo := queues[q]; len(fifo) != 0 {
			return fmt.Errorf("sim: %v queue %d still holds %d values after drain", q.loc, q.q, len(fifo))
		}
	}
	return nil
}

func pipelinedRef(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (*PipeResult, error) {
	l := s.Loop
	if err := s.Verify(); err != nil {
		return nil, err
	}
	if err := alloc.Verify(); err != nil {
		return nil, err
	}
	n := opt.N
	if n <= 0 {
		n = l.TripCount()
	}

	// Map dependence index -> queue assignment.
	byDep := make(map[int]queue.Assignment, len(alloc.Assignments))
	for _, as := range alloc.Assignments {
		byDep[as.Lifetime.DepIndex] = as
	}

	// Static check: without multi-write support, only copy operations may
	// feed two queues; everything else must have fanout <= 1.
	if !opt.AllowMultiWrite {
		for id, op := range l.Ops {
			fan := l.Fanout(op)
			limit := 1
			if op.Kind == ir.KCopy {
				limit = 2
			}
			if fan > limit {
				return nil, fmt.Errorf("sim: %v has fanout %d: value needs %d simultaneous writes (run copy insertion or set AllowMultiWrite)",
					l.Ops[id], fan, fan)
			}
		}
	}

	// Build the event timeline.
	events := map[int][]event{}
	addEvent := func(t int, e event) { events[t] = append(events[t], e) }
	for id, op := range l.Ops {
		for k := 0; k < n; k++ {
			addEvent(s.Time[id]+k*s.II, event{op: id, k: k})
		}
		_ = op
	}
	for di, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		as, ok := byDep[di]
		if !ok {
			return nil, fmt.Errorf("sim: dependence %v (index %d) has no queue assignment", d, di)
		}
		lat := l.Ops[d.From].Kind.Latency()
		comm := 0
		if s.Cluster[d.From] != s.Cluster[d.To] {
			comm = s.Machine.CommLatency
		}
		for k := -d.Dist; k < n-d.Dist; k++ {
			t := s.Time[d.From] + lat + comm + k*s.II
			addEvent(t, event{write: true, q: qid{as.Loc, as.Queue}, dep: d, depIx: di, prodK: k})
		}
	}
	cycles := make([]int, 0, len(events))
	for t := range events {
		cycles = append(cycles, t)
	}
	sort.Ints(cycles)

	// Execute.
	type instKey struct{ op, k int }
	values := map[instKey]int64{}
	queues := map[qid][]tagged{}
	res := &PipeResult{}
	stores := map[StoreKey]int64{}
	inputs := make([][]int, len(l.Ops)) // flow-input dep indices per op
	for di, d := range l.Deps {
		if d.Kind == ir.Flow {
			inputs[d.To] = append(inputs[d.To], di)
		}
	}

	var args []int64
	for _, t := range cycles {
		evs := events[t]
		// Writes first: a value may be written and read in the same cycle
		// (zero-length lifetime, hardware bypass), but FIFO order still
		// applies because pops always take the head.
		wrote := map[qid]int{}
		for _, e := range evs {
			if !e.write {
				continue
			}
			wrote[e.q]++
			if wrote[e.q] > 1 {
				return nil, fmt.Errorf("sim: cycle %d: two writes to %v queue %d (write-port conflict)", t, e.q.loc, e.q.q)
			}
			var v int64
			if e.prodK < 0 {
				op := l.Ops[e.dep.From]
				v = ir.LeafValue(op.EffID(), l.OrigIter(op, e.prodK))
			} else {
				var ok bool
				v, ok = values[instKey{e.dep.From, e.prodK}]
				if !ok {
					return nil, fmt.Errorf("sim: cycle %d: write of %v iteration %d before it was computed",
						t, l.Ops[e.dep.From], e.prodK)
				}
			}
			queues[e.q] = append(queues[e.q], tagged{prod: e.dep.From, iter: e.prodK, val: v})
		}
		// Issues: pop operands, check tags, evaluate.
		read := map[qid]int{}
		var busy [machine.NumClasses]map[int]int // per class: cluster -> issues
		for _, e := range evs {
			if e.write {
				continue
			}
			op := l.Ops[e.op]
			cl := s.Cluster[e.op]
			class := machine.ClassOf(op.Kind)
			if busy[class] == nil {
				busy[class] = map[int]int{}
			}
			busy[class][cl]++
			if busy[class][cl] > s.Machine.FUCount(cl, class) {
				return nil, fmt.Errorf("sim: cycle %d: cluster %d issues more %v ops than units", t, cl, class)
			}
			args = args[:0]
			for _, di := range inputs[e.op] {
				d := l.Deps[di]
				as := byDep[di]
				q := qid{as.Loc, as.Queue}
				read[q]++
				if read[q] > 1 {
					return nil, fmt.Errorf("sim: cycle %d: two reads from %v queue %d (read-port conflict)", t, q.loc, q.q)
				}
				fifo := queues[q]
				if len(fifo) == 0 {
					return nil, fmt.Errorf("sim: cycle %d: %v pops empty %v queue %d", t, op, q.loc, q.q)
				}
				head := fifo[0]
				queues[q] = fifo[1:]
				wantIter := e.k - d.Dist
				if head.prod != d.From || head.iter != wantIter {
					return nil, fmt.Errorf("sim: cycle %d: %v iteration %d expected value (%v,%d), FIFO delivered (%v,%d): Q-compatibility violated",
						t, op, e.k, l.Ops[d.From], wantIter, l.Ops[head.prod], head.iter)
				}
				args = append(args, head.val)
			}
			v := ir.Eval(op, l.OrigIter(op, e.k), args)
			values[instKey{e.op, e.k}] = v
			res.Issues++
			if op.Kind == ir.KStore {
				stores[StoreKey{op.EffID(), l.OrigIter(op, e.k)}] = v
			}
		}
		// Occupancy accounting and depth limits, after the cycle settles.
		for _, q := range sortedQids(queues) {
			fifo := queues[q]
			if len(fifo) > res.MaxDepth {
				res.MaxDepth = len(fifo)
			}
			depth := 0
			switch q.loc.Kind {
			case queue.Private:
				depth = s.Machine.Clusters[q.loc.From].QueueDepth
			case queue.Ring:
				depth = s.Machine.Clusters[q.loc.To].QueueDepth
			}
			if depth > 0 && len(fifo) > depth {
				return nil, fmt.Errorf("sim: cycle %d: %v queue %d exceeds depth %d", t, q.loc, q.q, depth)
			}
		}
	}
	if len(cycles) > 0 {
		res.Cycles = cycles[len(cycles)-1] - cycles[0] + 1
	}
	// Every queue must drain: a non-empty queue means a value was produced
	// and never consumed (allocation/schedule mismatch).
	if err := refDrained(queues); err != nil {
		return nil, err
	}
	res.Stores = sortedStores(stores)
	return res, nil
}

// sortedStores returns a store map as a slice sorted by key.
func sortedStores(m map[StoreKey]int64) []Store {
	var out []Store
	for k, v := range m {
		out = append(out, Store{k, v})
	}
	slices.SortFunc(out, func(a, b Store) int { return cmpStoreKey(a.Key, b.Key) })
	return out
}

// storeMap is sortedStores' inverse.
func storeMap(stores []Store) map[StoreKey]int64 {
	m := make(map[StoreKey]int64, len(stores))
	for _, st := range stores {
		m[st.Key] = st.Val
	}
	return m
}

// referenceMap is the previous Reference: one value slice per op, flow
// inputs gathered per op, and stores recorded in a map.
func referenceMap(l *ir.Loop, n int) (map[StoreKey]int64, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	order, err := l.TopoOrder()
	if err != nil {
		return nil, err
	}
	inputs := make([][]ir.Dep, len(l.Ops))
	for id := range l.Ops {
		inputs[id] = l.FlowInputs(l.Ops[id])
	}
	values := make([][]int64, len(l.Ops))
	for id := range l.Ops {
		values[id] = make([]int64, n)
	}
	value := func(opID, k int) int64 {
		if k < 0 {
			op := l.Ops[opID]
			return ir.LeafValue(op.EffID(), l.OrigIter(op, k))
		}
		return values[opID][k]
	}
	stores := make(map[StoreKey]int64)
	var args []int64
	for k := 0; k < n; k++ {
		for _, id := range order {
			op := l.Ops[id]
			args = args[:0]
			for _, d := range inputs[id] {
				args = append(args, value(d.From, k-d.Dist))
			}
			v := ir.Eval(op, l.OrigIter(op, k), args)
			values[id][k] = v
			if op.Kind == ir.KStore {
				stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = v
			}
		}
	}
	return stores, nil
}

// compareStoresMap is the previous CompareStores. With several bad keys
// the one it reports follows map iteration order.
func compareStoresMap(a, b map[StoreKey]int64, onlyCommon bool) error {
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			if onlyCommon {
				continue
			}
			return fmt.Errorf("sim: store %+v missing from second execution", k)
		}
		if va != vb {
			return fmt.Errorf("sim: store %+v differs: %d vs %d", k, va, vb)
		}
	}
	if !onlyCommon {
		for k := range b {
			if _, ok := a[k]; !ok {
				return fmt.Errorf("sim: store %+v missing from first execution", k)
			}
		}
	}
	return nil
}

// verifyPipelineRef is the previous VerifyPipeline, composed from the
// map-based references.
func verifyPipelineRef(s *sched.Schedule, alloc *queue.Allocation, n int) error {
	if n <= 0 {
		n = s.Loop.TripCount()
	}
	ref, err := referenceMap(s.Loop, n)
	if err != nil {
		return err
	}
	pipe, err := pipelinedRef(s, alloc, PipeOptions{N: n})
	if err != nil {
		return err
	}
	return compareStoresMap(ref, storeMap(pipe.Stores), false)
}

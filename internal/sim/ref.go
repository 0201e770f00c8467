// Package sim executes loops two ways and compares the outcomes:
//
//   - Reference: a plain sequential interpreter of the dependence graph,
//     iteration by iteration — the ground truth.
//   - Pipelined: a cycle-accurate model of the clustered VLIW machine with
//     queue register files executing a modulo schedule plus queue
//     allocation. Every value carries a (producer, iteration) tag; each
//     queue pop asserts that FIFO order delivered exactly the value the
//     consumer expects, so any violation of the Q-Compatibility theorem,
//     the partitioner's adjacency rule or a dependence constraint
//     surfaces as a precise error.
//
// Both interpreters share ir.Eval, so a surviving value mismatch always
// indicates a scheduling/allocation bug, never divergent semantics.
package sim

import (
	"cmp"
	"fmt"
	"slices"

	"vliwq/internal/ir"
)

// StoreKey identifies one store instance in the original iteration space.
type StoreKey struct {
	Op   int // effective (pre-unrolling) op ID of the store
	Iter int // original iteration
}

// cmpStoreKey orders keys by (Op, Iter).
func cmpStoreKey(a, b StoreKey) int {
	if c := cmp.Compare(a.Op, b.Op); c != 0 {
		return c
	}
	return cmp.Compare(a.Iter, b.Iter)
}

// Store is one recorded store instance: its key and the value stored.
type Store struct {
	Key StoreKey
	Val int64
}

// Ref is the outcome of a sequential reference execution.
type Ref struct {
	Loop *ir.Loop
	N    int // iterations executed (of the possibly-unrolled body)
	// Values[op*N+k] is the value op produced in body-iteration k.
	Values []int64
	// Stores records every store instance, sorted by key and keyed in the
	// original iteration space so unrolled and natural bodies are
	// comparable.
	Stores []Store
}

// Reference executes n iterations of the loop body sequentially.
func Reference(l *ir.Loop, n int) (*Ref, error) {
	var a arena
	values, stores, err := a.reference(l, n)
	if err != nil {
		return nil, err
	}
	return &Ref{Loop: l, N: n, Values: values, Stores: stores}, nil
}

// reference is Reference on the arena's slabs.
func (a *arena) reference(l *ir.Loop, n int) (values []int64, stores []Store, err error) {
	if err := l.Validate(); err != nil {
		return nil, nil, err
	}
	order, err := l.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	slots, size, err := a.storeLayout(l, n)
	if err != nil {
		return nil, nil, err
	}
	ins, start := a.flowInputs(l)
	values = take(&a.refVals, len(l.Ops)*n)
	stores = take(&a.refStores, size)
	args := a.args
	for k := 0; k < n; k++ {
		for _, id := range order {
			op := l.Ops[id]
			args = args[:0]
			for _, in := range ins[start[id]:start[id+1]] {
				var v int64
				if j := k - in.dist; j >= 0 {
					v = values[in.from*n+j]
				} else {
					// Negative iterations yield the synthetic live-in
					// values that exist before the loop starts.
					from := l.Ops[in.from]
					v = ir.LeafValue(from.EffID(), l.OrigIter(from, j))
				}
				args = append(args, v)
			}
			v := ir.Eval(op, l.OrigIter(op, k), args)
			values[id*n+k] = v
			if op.Kind == ir.KStore {
				stores[slots[id].at(k)] = Store{StoreKey{op.EffID(), l.OrigIter(op, k)}, v}
			}
		}
	}
	a.args = args
	return values, stores, nil
}

// storeSlot places a store op's instances in the key-ordered store slab:
// instance k fills slot base + k*stride.
type storeSlot struct{ base, stride int }

func (s storeSlot) at(k int) int { return s.base + k*s.stride }

// storeLayout lays out the store instances of n body iterations in
// (Op, Iter) key order, so both executions write each instance straight
// into its final slot: no map and no sort. Store op i's instance k has key
// (EffID, k*U + Phase); with every phase in [0, U) that orders as
// (EffID, k, Phase), so the stores sharing an EffID (the replicas of an
// unrolled store) form one group of m distinct phases, and phase rank r of
// instance k sits at the group's base + k*m + r. Stores sharing both EffID
// and phase share slots, so the later write wins, as it would in a map. It
// returns the per-op slots and the slab size.
func (a *arena) storeLayout(l *ir.Loop, n int) ([]storeSlot, int, error) {
	u := l.UnrollFactor()
	ids := a.storeIDs[:0]
	for id, op := range l.Ops {
		if op.Kind != ir.KStore {
			continue
		}
		if op.Phase < 0 || op.Phase >= u {
			return nil, 0, fmt.Errorf("sim: %v has phase %d outside unroll factor %d", op, op.Phase, u)
		}
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(i, j int) int {
		if c := cmp.Compare(l.Ops[i].EffID(), l.Ops[j].EffID()); c != 0 {
			return c
		}
		return cmp.Compare(l.Ops[i].Phase, l.Ops[j].Phase)
	})
	a.storeIDs = ids
	slots := take(&a.slots, len(l.Ops))
	size := 0
	for g := 0; g < len(ids); {
		eff := l.Ops[ids[g]].EffID()
		end, m := g, 0 // group ids[g:end], m distinct phases
		for ; end < len(ids) && l.Ops[ids[end]].EffID() == eff; end++ {
			if end == g || l.Ops[ids[end]].Phase != l.Ops[ids[end-1]].Phase {
				m++
			}
		}
		r := -1
		for i := g; i < end; i++ {
			if i == g || l.Ops[ids[i]].Phase != l.Ops[ids[i-1]].Phase {
				r++
			}
			slots[ids[i]] = storeSlot{base: size + r, stride: m}
		}
		size += m * n
		g = end
	}
	return slots, size, nil
}

// CompareStores checks that two executions stored exactly the same values
// for every (store, original-iteration) key present in both. Both slices
// must be sorted by key with each key once, as Reference and Pipelined
// return them. Keys present in only one execution are ignored when
// onlyCommon is true (an unrolled body covers a truncated iteration
// range).
//
// A key of the first execution that differs or is missing from the second
// is reported ahead of any key missing from the first; within each kind
// the first key in (Op, Iter) order is the one reported.
func CompareStores(a, b []Store, onlyCommon bool) error {
	onlyB := -1 // index in b of the first key missing from a
	j := 0
	for i := range a {
		for ; j < len(b) && cmpStoreKey(b[j].Key, a[i].Key) < 0; j++ {
			if onlyB < 0 {
				onlyB = j
			}
		}
		if j == len(b) || b[j].Key != a[i].Key {
			if onlyCommon {
				continue
			}
			return fmt.Errorf("sim: store %+v missing from second execution", a[i].Key)
		}
		if a[i].Val != b[j].Val {
			return fmt.Errorf("sim: store %+v differs: %d vs %d", a[i].Key, a[i].Val, b[j].Val)
		}
		j++
	}
	if onlyB < 0 && j < len(b) {
		onlyB = j
	}
	if onlyB >= 0 && !onlyCommon {
		return fmt.Errorf("sim: store %+v missing from first execution", b[onlyB].Key)
	}
	return nil
}

// Package copyins implements the paper's copy-operation insertion (§2).
//
// In a queue register file a value is destroyed by the read that consumes
// it, so a value consumed n > 1 times would need n simultaneous writes to n
// distinct queues (paper Fig. 1c). Instead, a dedicated copy functional
// unit reads a value from one queue and writes it to two queues (Fig. 2).
// This pass rewrites every multi-consumer value into a fanout tree of copy
// operations so that, afterwards, every value has exactly one consumer.
package copyins

import (
	"fmt"

	"vliwq/internal/ir"
)

// Shape selects the fanout tree topology.
type Shape uint8

const (
	// Tree builds a balanced binary tree: minimal added depth
	// (ceil(log2 n) copy latencies on the critical path).
	Tree Shape = iota
	// Chain builds a linear chain: each copy feeds one consumer and the
	// next copy. Used by the ablation benchmark; adds O(n) depth.
	Chain
	// None inserts no copies: Insert returns an unmodified clone. The
	// paper's "without copy operations" baselines (Fig. 3, the copy-cost
	// table) use it; it has no wire spelling, so requests cannot select
	// it.
	None
)

func (s Shape) String() string {
	switch s {
	case Chain:
		return "chain"
	case None:
		return "none"
	}
	return "tree"
}

// Result reports what Insert did.
type Result struct {
	Loop          *ir.Loop
	CopiesAdded   int
	ValuesFanned  int // number of multi-consumer values rewritten
	MaxFanoutSeen int
}

// Insert returns a copy of the loop in which every value with more than one
// flow consumer is routed through a fanout tree of copy operations. The
// input loop is not modified. Loops already satisfying the single-consumer
// property, and every loop under shape None, are returned as an unmodified
// clone with CopiesAdded == 0.
func Insert(l *ir.Loop, shape Shape) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	out := l.Clone()
	res := &Result{Loop: out}
	if shape == None {
		return res, nil
	}

	// Iterate over the original producer IDs; newly added copies always
	// have exactly two consumers by construction... except the tree
	// interior, which we build directly with fanout 2, so one pass
	// suffices.
	numOrig := len(out.Ops)
	for id := 0; id < numOrig; id++ {
		op := out.Ops[id]
		if !op.Kind.HasResult() {
			continue
		}
		// Collect this value's flow consumers (dep list indices).
		var consumers []int
		for di, d := range out.Deps {
			if d.Kind == ir.Flow && d.From == id {
				consumers = append(consumers, di)
			}
		}
		n := len(consumers)
		if n > res.MaxFanoutSeen {
			res.MaxFanoutSeen = n
		}
		// Copy units write two queues, so an existing copy with two
		// consumers is already in hardware-legal form.
		limit := 1
		if op.Kind == ir.KCopy {
			limit = 2
		}
		if n <= limit {
			continue
		}
		res.ValuesFanned++
		buildFanout(out, id, consumers, shape, res)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("copyins: internal error: %w", err)
	}
	return res, nil
}

// buildFanout rewires the consumers of value `src` through copy operations.
// Each consumer dependence keeps its original iteration distance and — by
// patching the dependence slot in place — its position in the consumer's
// operand list, so operand-order-sensitive semantics are preserved. The
// internal tree edges have distance zero, and the producer feeds the root
// copy with distance zero.
func buildFanout(l *ir.Loop, src int, consumerDeps []int, shape Shape, res *Result) {
	// Copies forward the source value unchanged, so they inherit the
	// source's lineage: a copy's synthetic pre-loop live-in (read by
	// loop-carried consumers in the first iterations) must equal the
	// original producer's, or the rewrite would change program semantics.
	srcOp := l.Ops[src]
	newCopy := func(from int) int {
		c := l.AddOp(ir.KCopy, "")
		c.Orig = srcOp.EffID()
		c.Phase = srcOp.Phase
		l.AddDep(ir.Dep{From: from, To: c.ID, Kind: ir.Flow})
		res.CopiesAdded++
		return c.ID
	}
	// connect re-points the original dependence at its feeding copy; the
	// slot, consumer and distance stay put.
	connect := func(from int, depIdx int) {
		l.Deps[depIdx].From = from
	}

	switch shape {
	case Chain:
		// src -> c1 -> c2 ... each copy feeds one consumer and the next
		// copy; the last copy feeds the final two consumers.
		cur := newCopy(src)
		i := 0
		for ; i < len(consumerDeps)-2; i++ {
			connect(cur, consumerDeps[i])
			cur = newCopy(cur)
		}
		connect(cur, consumerDeps[i])
		connect(cur, consumerDeps[i+1])
	default: // Tree
		// A work queue of (feeding op, consumer dependences to serve).
		// Each copy serves two subtrees of near-equal size.
		type job struct {
			from int
			ds   []int
		}
		jobs := []job{{newCopy(src), consumerDeps}}
		for len(jobs) > 0 {
			j := jobs[len(jobs)-1]
			jobs = jobs[:len(jobs)-1]
			switch len(j.ds) {
			case 1:
				connect(j.from, j.ds[0])
			case 2:
				connect(j.from, j.ds[0])
				connect(j.from, j.ds[1])
			default:
				half := (len(j.ds) + 1) / 2
				left, right := j.ds[:half], j.ds[half:]
				// Each side larger than one target needs its own copy.
				if len(left) == 1 {
					connect(j.from, left[0])
				} else {
					jobs = append(jobs, job{newCopy(j.from), left})
				}
				if len(right) == 1 {
					connect(j.from, right[0])
				} else {
					jobs = append(jobs, job{newCopy(j.from), right})
				}
			}
		}
	}
}

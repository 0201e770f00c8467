package sim

import (
	"sync"

	"vliwq/internal/ir"
)

// arena is the working memory of one verification: the value and store
// slabs of both executions, the computed flags, the flow-input CSR, and the
// pipelined walk's template, operand and queue tables with their FIFO
// rings. Every slice is resized in place, so an arena that has verified a
// loop verifies the next one of similar size without allocating.
//
// VerifyPipeline draws its arena from arenaPool and returns it once the
// verdict is formatted: nothing it returns points into the arena. Reference
// and Pipelined run on a fresh arena and hand its slabs to their results,
// so those results own their memory.
type arena struct {
	// Shared by both executions.
	slots    []storeSlot // per op: where its store instances land
	storeIDs []int       // store ops, sorted by key while laying out
	inputs   []operand   // flow inputs grouped by consumer
	inTmp    []operand
	inStart  []int
	args     []int64

	// Reference.
	refVals   []int64 // refVals[op*n+k]
	refStores []Store

	// Pipelined.
	fan, asOf, flow, qOf []int
	byQueue              []queueSlot
	qs                   []fifo
	writes, writeTmp     []writeSlot
	wStart               []int
	issues, issueTmp     []issueSlot
	iStart               []int
	units, busy          []int
	touched              []int
	values               []int64 // values[op*n+k]
	computed             []bool
	stores               []Store
}

// arenaPool recycles VerifyPipeline's arenas across calls and goroutines.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// take resizes the arena slice *s to length n, reusing its backing array
// when large enough, and returns it. The contents are unspecified: callers
// overwrite or clear them.
func take[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// flowInputs groups the loop's flow dependences by consumer, each group in
// dependence order (the order ir.Loop.FlowInputs returns): op i's inputs
// are ins[start[i]:start[i+1]]. The queue field is left for Pipelined.
func (a *arena) flowInputs(l *ir.Loop) (ins []operand, start []int) {
	start = take(&a.inStart, len(l.Ops)+1)
	clear(start)
	tmp := a.inTmp[:0]
	for di, d := range l.Deps {
		if d.Kind == ir.Flow {
			tmp = append(tmp, operand{from: d.From, to: d.To, dist: d.Dist, dep: di})
			start[d.To+1]++
		}
	}
	a.inTmp = tmp
	return bucket(&a.inputs, tmp, start, func(o *operand) int { return o.to }), start
}

// bucket writes slots into the arena slice *dst grouped stably by key (a
// template row, or an operand's consumer). start arrives holding each
// key's slot count at start[key+1] and leaves holding the prefix offsets,
// so key r's slots are out[start[r]:start[r+1]].
func bucket[T any](dst *[]T, slots []T, start []int, keyOf func(*T) int) []T {
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	out := take(dst, len(slots))
	for i := range slots {
		r := keyOf(&slots[i])
		out[start[r]] = slots[i]
		start[r]++
	}
	// Each start[r] advanced to the end of its bucket, which is where
	// bucket r+1 begins; shift them back into place.
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
	return out
}

package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// PipeOptions configure the pipelined execution.
type PipeOptions struct {
	// N is the number of body iterations to execute; 0 uses the loop's
	// trip count.
	N int
	// AllowMultiWrite permits an ordinary operation to write more than one
	// queue in the same cycle. This models the paper's Fig. 1(c) baseline
	// (multi-consumer values without copy operations, needing simultaneous
	// writes); with copy insertion in the pipeline it should stay false so
	// the simulator enforces the single-write property.
	AllowMultiWrite bool
}

// PipeResult is the outcome of a pipelined execution.
type PipeResult struct {
	Cycles   int // cycles from first event to pipeline drain
	Issues   int // operation instances issued
	Stores   map[StoreKey]int64
	MaxDepth int // deepest queue occupancy observed
}

// tagged is one queue entry: a value and the (producer, iteration) tag
// every pop checks.
type tagged struct {
	prod int // producer op ID
	iter int // producer body-iteration (negative = live-in)
	val  int64
}

// fifo is one physical queue of the dense queue table: a ring buffer of
// tagged values plus the stamps of the last cycle that wrote and popped
// it, which enforce one write port and one read port per cycle.
type fifo struct {
	loc   queue.Location
	q     int
	depth int      // machine depth limit; 0 = unbounded
	buf   []tagged // ring; length 0 or a power of two
	head  int
	size  int
	wrote int // stamp of the last cycle that wrote the queue; 0 = none
	read  int // stamp of the last cycle that popped it; 0 = none
}

func (f *fifo) push(e tagged) {
	if f.size == len(f.buf) {
		grown := make([]tagged, max(4, 2*len(f.buf)))
		for i := 0; i < f.size; i++ {
			grown[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.size)&(len(f.buf)-1)] = e
	f.size++
}

func (f *fifo) pop() tagged {
	e := f.buf[f.head]
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.size--
	return e
}

// drained checks that every queue emptied: a non-empty queue means a value
// was produced and never consumed (allocation/schedule mismatch). Queues
// are checked in table order, (kind, from, to, queue), so with several
// non-empty queues the error always names the same one.
func drained(qs []fifo) error {
	for i := range qs {
		if f := &qs[i]; f.size != 0 {
			return fmt.Errorf("sim: %v queue %d still holds %d values after drain", f.loc, f.q, f.size)
		}
	}
	return nil
}

// writeSlot is a flow dependence's entry in the one-II template: producer
// instance k reaches queue q at cycle base + k*II, for k in [lo, hi).
type writeSlot struct {
	from, q      int
	base, lo, hi int
}

// issueSlot is an operation's entry in the template: instance k issues at
// cycle base + k*II, for k in [0, n), on FU counter unit.
type issueSlot struct {
	op, base, unit int
}

// operand is one flow input of an operation: the producer, the consumer,
// the dependence distance and the queue the value travels through.
type operand struct {
	from, to, dist, q int
}

// Pipelined executes n iterations of the modulo schedule on a cycle-level
// model of the queue-register-file machine. Every queue pop checks that
// FIFO order delivers the exact (producer, iteration) instance the
// dependence requires.
//
// Op i of iteration k issues at Time[i] + k*II, so the whole timeline is
// one static template of II rows repeated: every issue and every queue
// write is bucketed once by its cycle modulo II (writes first, in
// dependence order, then issues in op order: the order events take within
// a cycle), and the walk visits each cycle's row, deriving k from the
// cycle. Values live in a dense op×iteration slab and queues in a dense
// table of ring buffers numbered in (kind, from, to, queue) order.
func Pipelined(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (*PipeResult, error) {
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
	ii := s.II

	// Static check: without multi-write support, only copy operations may
	// feed two queues; everything else must have fanout <= 1.
	if !opt.AllowMultiWrite {
		fan := make([]int, len(l.Ops))
		for _, d := range l.Deps {
			if d.Kind == ir.Flow {
				fan[d.From]++
			}
		}
		for id, op := range l.Ops {
			limit := 1
			if op.Kind == ir.KCopy {
				limit = 2
			}
			if fan[id] > limit {
				return nil, fmt.Errorf("sim: %v has fanout %d: value needs %d simultaneous writes (run copy insertion or set AllowMultiWrite)",
					l.Ops[id], fan[id], fan[id])
			}
		}
	}

	// Dependence index -> assignment index; when several assignments name
	// one dependence the last wins.
	asOf := make([]int, len(l.Deps))
	for i := range asOf {
		asOf[i] = -1
	}
	for i, as := range alloc.Assignments {
		if di := as.Lifetime.DepIndex; di >= 0 && di < len(asOf) {
			asOf[di] = i
		}
	}
	var flow []int // flow dependence indices, in order
	for di, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		if asOf[di] < 0 {
			return nil, fmt.Errorf("sim: dependence %v (index %d) has no queue assignment", d, di)
		}
		flow = append(flow, di)
	}

	// The dense queue table, one fifo per distinct (location, queue).
	type slot struct {
		loc queue.Location
		q   int
		di  int
	}
	byQueue := make([]slot, len(flow))
	for i, di := range flow {
		as := &alloc.Assignments[asOf[di]]
		byQueue[i] = slot{as.Loc, as.Queue, di}
	}
	slices.SortFunc(byQueue, func(a, b slot) int { return cmpQueue(a.loc, a.q, b.loc, b.q) })
	qOf := make([]int, len(l.Deps))
	var qs []fifo
	for i, sl := range byQueue {
		if i == 0 || sl.loc != byQueue[i-1].loc || sl.q != byQueue[i-1].q {
			qs = append(qs, fifo{loc: sl.loc, q: sl.q, depth: depthLimit(&s.Machine, sl.loc)})
		}
		qOf[sl.di] = len(qs) - 1
	}

	// The template: writes and issues bucketed by row = cycle mod II,
	// stably, so each row keeps dependence and op order.
	minT, maxT := math.MaxInt, math.MinInt
	span := func(first, last int) {
		minT, maxT = min(minT, first), max(maxT, last)
	}
	row := func(t int) int { return (t%ii + ii) % ii }
	writes := make([]writeSlot, len(flow))
	wStart := make([]int, ii+1)
	for i, di := range flow {
		d := l.Deps[di]
		base := s.Time[d.From] + l.Ops[d.From].Kind.Latency()
		if s.Cluster[d.From] != s.Cluster[d.To] {
			base += s.Machine.CommLatency
		}
		writes[i] = writeSlot{from: d.From, q: qOf[di], base: base, lo: -d.Dist, hi: n - d.Dist}
		span(base-d.Dist*ii, base+(n-d.Dist-1)*ii)
		wStart[row(base)+1]++
	}
	writes = bucket(writes, wStart, func(w *writeSlot) int { return row(w.base) })

	nc := s.Machine.NumClusters()
	units := make([]int, int(machine.NumClasses)*nc) // FU count per unit
	for c := 0; c < nc; c++ {
		for class := machine.FUClass(0); class < machine.NumClasses; class++ {
			units[int(class)*nc+c] = s.Machine.FUCount(c, class)
		}
	}
	issues := make([]issueSlot, len(l.Ops))
	iStart := make([]int, ii+1)
	stores := 0
	for id, op := range l.Ops {
		base := s.Time[id]
		issues[id] = issueSlot{op: id, base: base, unit: int(machine.ClassOf(op.Kind))*nc + s.Cluster[id]}
		span(base, base+(n-1)*ii)
		iStart[row(base)+1]++
		if op.Kind == ir.KStore {
			stores++
		}
	}
	issues = bucket(issues, iStart, func(is *issueSlot) int { return row(is.base) })

	// Flow inputs per op, in dependence order.
	operands := make([]operand, len(flow))
	inStart := make([]int, len(l.Ops)+1)
	for i, di := range flow {
		d := l.Deps[di]
		operands[i] = operand{from: d.From, to: d.To, dist: d.Dist, q: qOf[di]}
		inStart[d.To+1]++
	}
	operands = bucket(operands, inStart, func(o *operand) int { return o.to })

	// Execute.
	values := make([]int64, len(l.Ops)*n) // values[op*n+k]
	computed := make([]bool, len(l.Ops)*n)
	busy := make([]int, len(units))
	res := &PipeResult{Stores: make(map[StoreKey]int64, stores*n)}
	var args []int64
	var touched []int // queues written this cycle
	r := row(minT)
	for t := minT; t <= maxT; t++ {
		stamp := t - minT + 1
		// Writes first: a value may be written and read in the same cycle
		// (zero-length lifetime, hardware bypass), but FIFO order still
		// applies because pops always take the head.
		for i := wStart[r]; i < wStart[r+1]; i++ {
			w := &writes[i]
			k := (t - w.base) / ii
			if k < w.lo || k >= w.hi {
				continue
			}
			f := &qs[w.q]
			if f.wrote == stamp {
				return nil, fmt.Errorf("sim: cycle %d: two writes to %v queue %d (write-port conflict)", t, f.loc, f.q)
			}
			f.wrote = stamp
			var v int64
			switch {
			case k < 0:
				op := l.Ops[w.from]
				v = ir.LeafValue(op.EffID(), l.OrigIter(op, k))
			case k < n && computed[w.from*n+k]:
				v = values[w.from*n+k]
			default:
				return nil, fmt.Errorf("sim: cycle %d: write of %v iteration %d before it was computed",
					t, l.Ops[w.from], k)
			}
			f.push(tagged{prod: w.from, iter: k, val: v})
			touched = append(touched, w.q)
		}
		// Issues: pop operands, check tags, evaluate.
		if iStart[r] < iStart[r+1] {
			clear(busy)
		}
		for i := iStart[r]; i < iStart[r+1]; i++ {
			is := &issues[i]
			k := (t - is.base) / ii
			if k < 0 || k >= n {
				continue
			}
			op := l.Ops[is.op]
			if busy[is.unit]++; busy[is.unit] > units[is.unit] {
				return nil, fmt.Errorf("sim: cycle %d: cluster %d issues more %v ops than units", t, s.Cluster[is.op], machine.ClassOf(op.Kind))
			}
			args = args[:0]
			for _, in := range operands[inStart[is.op]:inStart[is.op+1]] {
				f := &qs[in.q]
				if f.read == stamp {
					return nil, fmt.Errorf("sim: cycle %d: two reads from %v queue %d (read-port conflict)", t, f.loc, f.q)
				}
				f.read = stamp
				if f.size == 0 {
					return nil, fmt.Errorf("sim: cycle %d: %v pops empty %v queue %d", t, op, f.loc, f.q)
				}
				head := f.pop()
				wantIter := k - in.dist
				if head.prod != in.from || head.iter != wantIter {
					return nil, fmt.Errorf("sim: cycle %d: %v iteration %d expected value (%v,%d), FIFO delivered (%v,%d): Q-compatibility violated",
						t, op, k, l.Ops[in.from], wantIter, l.Ops[head.prod], head.iter)
				}
				args = append(args, head.val)
			}
			v := ir.Eval(op, l.OrigIter(op, k), args)
			values[is.op*n+k] = v
			computed[is.op*n+k] = true
			res.Issues++
			if op.Kind == ir.KStore {
				res.Stores[StoreKey{op.EffID(), l.OrigIter(op, k)}] = v
			}
		}
		// Occupancy accounting and depth limits, after the cycle settles.
		// Only a queue written this cycle can have grown, and the first
		// overflowing queue in table order is the one reported.
		if len(touched) > 0 {
			over := -1
			for _, qi := range touched {
				f := &qs[qi]
				res.MaxDepth = max(res.MaxDepth, f.size)
				if f.depth > 0 && f.size > f.depth && (over < 0 || qi < over) {
					over = qi
				}
			}
			if over >= 0 {
				f := &qs[over]
				return nil, fmt.Errorf("sim: cycle %d: %v queue %d exceeds depth %d", t, f.loc, f.q, f.depth)
			}
			touched = touched[:0]
		}
		if r++; r == ii {
			r = 0
		}
	}
	if minT <= maxT {
		res.Cycles = maxT - minT + 1
	}
	if err := drained(qs); err != nil {
		return nil, err
	}
	return res, nil
}

// bucket reorders slots stably by key (a template row, or an operand's
// consumer). start arrives holding each key's slot count at start[key+1]
// and leaves holding the prefix offsets, so key r's slots are
// out[start[r]:start[r+1]].
func bucket[T any](slots []T, start []int, keyOf func(*T) int) []T {
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	fill := slices.Clone(start[:len(start)-1])
	out := make([]T, len(slots))
	for i := range slots {
		r := keyOf(&slots[i])
		out[fill[r]] = slots[i]
		fill[r]++
	}
	return out
}

// cmpQueue orders queues by (kind, from, to, queue), the order
// Allocation.Verify checks them in.
func cmpQueue(a queue.Location, aq int, b queue.Location, bq int) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(aq, bq)
}

// depthLimit returns the depth bound of a queue file: the owning cluster's
// for a private QRF, the receiving cluster's for a ring link; 0 means
// unbounded.
func depthLimit(m *machine.Config, loc queue.Location) int {
	switch loc.Kind {
	case queue.Private:
		return m.Clusters[loc.From].QueueDepth
	case queue.Ring:
		return m.Clusters[loc.To].QueueDepth
	}
	return 0
}

// VerifyPipeline runs both executions and compares their stores. It is the
// end-to-end check used by tests and cmd/vliwsched.
func VerifyPipeline(s *sched.Schedule, alloc *queue.Allocation, n int) error {
	if n <= 0 {
		n = s.Loop.TripCount()
	}
	ref, err := Reference(s.Loop, n)
	if err != nil {
		return err
	}
	pipe, err := Pipelined(s, alloc, PipeOptions{N: n})
	if err != nil {
		return err
	}
	if err := CompareStores(ref.Stores, pipe.Stores, false); err != nil {
		return err
	}
	return nil
}

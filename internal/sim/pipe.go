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
	Cycles   int     // cycles from first event to pipeline drain
	Issues   int     // operation instances issued
	Stores   []Store // every store instance, sorted by key (see Ref.Stores)
	MaxDepth int     // deepest queue occupancy observed
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
// instance k reaches queue q at cycle (blk+k)*II + row, for k in [lo, hi).
type writeSlot struct {
	from, q          int
	row, blk, lo, hi int
}

// issueSlot is an operation's entry in the template: instance k issues at
// cycle (blk+k)*II + row, for k in [0, n), on FU counter unit.
type issueSlot struct {
	op, row, blk, unit int
}

// splitCycle splits cycle t into its II-block and its row: t = blk*ii + row
// with row in [0, ii).
func splitCycle(t, ii int) (blk, row int) {
	blk, row = t/ii, t%ii
	if row < 0 {
		blk, row = blk-1, row+ii
	}
	return blk, row
}

// operand is one flow input of an operation: the producer, the consumer,
// the dependence distance, the dependence index and the queue the value
// travels through.
type operand struct {
	from, to, dist, dep, q int
}

// queueSlot is a flow dependence's queue, sorted into the queue table.
type queueSlot struct {
	loc queue.Location
	q   int
	di  int
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
// cycle's II-block. Values live in a dense op×iteration slab, stores in a
// key-ordered slab (see storeLayout), and queues in a dense table of ring
// buffers numbered in (kind, from, to, queue) order.
func Pipelined(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (*PipeResult, error) {
	var a arena
	res, err := a.pipelined(s, alloc, opt)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// pipelined is Pipelined on the arena's slabs and tables.
func (a *arena) pipelined(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) (PipeResult, error) {
	var res PipeResult
	l := s.Loop
	if err := s.Verify(); err != nil {
		return res, err
	}
	if err := alloc.Verify(); err != nil {
		return res, err
	}
	n := opt.N
	if n <= 0 {
		n = l.TripCount()
	}
	ii := s.II

	// Static check: without multi-write support, only copy operations may
	// feed two queues; everything else must have fanout <= 1.
	if !opt.AllowMultiWrite {
		fan := take(&a.fan, len(l.Ops))
		clear(fan)
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
				return res, fmt.Errorf("sim: %v has fanout %d: value needs %d simultaneous writes (run copy insertion or set AllowMultiWrite)",
					l.Ops[id], fan[id], fan[id])
			}
		}
	}

	// Dependence index -> assignment index; when several assignments name
	// one dependence the last wins.
	asOf := take(&a.asOf, len(l.Deps))
	for i := range asOf {
		asOf[i] = -1
	}
	for i, as := range alloc.Assignments {
		if di := as.Lifetime.DepIndex; di >= 0 && di < len(asOf) {
			asOf[di] = i
		}
	}
	flow := a.flow[:0] // flow dependence indices, in order
	for di, d := range l.Deps {
		if d.Kind != ir.Flow {
			continue
		}
		if asOf[di] < 0 {
			return res, fmt.Errorf("sim: dependence %v (index %d) has no queue assignment", d, di)
		}
		flow = append(flow, di)
	}
	a.flow = flow
	slots, size, err := a.storeLayout(l, n)
	if err != nil {
		return res, err
	}

	// The dense queue table, one fifo per distinct (location, queue). A
	// reused arena keeps each table entry's ring buffer.
	byQueue := take(&a.byQueue, len(flow))
	for i, di := range flow {
		as := &alloc.Assignments[asOf[di]]
		byQueue[i] = queueSlot{as.Loc, as.Queue, di}
	}
	slices.SortFunc(byQueue, func(a, b queueSlot) int { return cmpQueue(a.loc, a.q, b.loc, b.q) })
	qOf := take(&a.qOf, len(l.Deps))
	qs := a.qs[:0]
	for i, sl := range byQueue {
		if i == 0 || sl.loc != byQueue[i-1].loc || sl.q != byQueue[i-1].q {
			var buf []tagged
			if len(qs) < cap(qs) {
				buf = qs[:len(qs)+1][len(qs)].buf
			}
			qs = append(qs, fifo{loc: sl.loc, q: sl.q, depth: depthLimit(&s.Machine, sl.loc), buf: buf})
		}
		qOf[sl.di] = len(qs) - 1
	}
	a.qs = qs

	// The template: writes and issues bucketed by row = cycle mod II,
	// stably, so each row keeps dependence and op order.
	minT, maxT := math.MaxInt, math.MinInt
	span := func(first, last int) {
		minT, maxT = min(minT, first), max(maxT, last)
	}
	writes := take(&a.writeTmp, len(flow))
	wStart := take(&a.wStart, ii+1)
	clear(wStart)
	for i, di := range flow {
		d := l.Deps[di]
		base := s.Time[d.From] + l.Ops[d.From].Kind.Latency()
		if s.Cluster[d.From] != s.Cluster[d.To] {
			base += s.Machine.CommLatency
		}
		blk, row := splitCycle(base, ii)
		writes[i] = writeSlot{from: d.From, q: qOf[di], row: row, blk: blk, lo: -d.Dist, hi: n - d.Dist}
		span(base-d.Dist*ii, base+(n-d.Dist-1)*ii)
		wStart[row+1]++
	}
	writes = bucket(&a.writes, writes, wStart, func(w *writeSlot) int { return w.row })

	nc := s.Machine.NumClusters()
	units := take(&a.units, int(machine.NumClasses)*nc) // FU count per unit
	for c := 0; c < nc; c++ {
		for class := machine.FUClass(0); class < machine.NumClasses; class++ {
			units[int(class)*nc+c] = s.Machine.FUCount(c, class)
		}
	}
	busy := take(&a.busy, len(units))
	issues := take(&a.issueTmp, len(l.Ops))
	iStart := take(&a.iStart, ii+1)
	clear(iStart)
	for id, op := range l.Ops {
		base := s.Time[id]
		blk, row := splitCycle(base, ii)
		issues[id] = issueSlot{op: id, row: row, blk: blk, unit: int(machine.ClassOf(op.Kind))*nc + s.Cluster[id]}
		span(base, base+(n-1)*ii)
		iStart[row+1]++
	}
	issues = bucket(&a.issues, issues, iStart, func(is *issueSlot) int { return is.row })

	// Flow inputs per op, in dependence order, with their queues.
	operands, inStart := a.flowInputs(l)
	for i := range operands {
		operands[i].q = qOf[operands[i].dep]
	}

	// Execute.
	values := take(&a.values, len(l.Ops)*n) // values[op*n+k]
	computed := take(&a.computed, len(l.Ops)*n)
	clear(computed)
	stores := take(&a.stores, size)
	args := a.args
	touched := a.touched[:0]       // queues written this cycle
	blk, r := splitCycle(minT, ii) // t = blk*ii + r
	for t := minT; t <= maxT; t++ {
		stamp := t - minT + 1
		// Writes first: a value may be written and read in the same cycle
		// (zero-length lifetime, hardware bypass), but FIFO order still
		// applies because pops always take the head.
		for i := wStart[r]; i < wStart[r+1]; i++ {
			w := &writes[i]
			k := blk - w.blk
			if k < w.lo || k >= w.hi {
				continue
			}
			f := &qs[w.q]
			if f.wrote == stamp {
				return res, fmt.Errorf("sim: cycle %d: two writes to %v queue %d (write-port conflict)", t, f.loc, f.q)
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
				return res, fmt.Errorf("sim: cycle %d: write of %v iteration %d before it was computed",
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
			k := blk - is.blk
			if k < 0 || k >= n {
				continue
			}
			op := l.Ops[is.op]
			if busy[is.unit]++; busy[is.unit] > units[is.unit] {
				return res, fmt.Errorf("sim: cycle %d: cluster %d issues more %v ops than units", t, s.Cluster[is.op], machine.ClassOf(op.Kind))
			}
			args = args[:0]
			for _, in := range operands[inStart[is.op]:inStart[is.op+1]] {
				f := &qs[in.q]
				if f.read == stamp {
					return res, fmt.Errorf("sim: cycle %d: two reads from %v queue %d (read-port conflict)", t, f.loc, f.q)
				}
				f.read = stamp
				if f.size == 0 {
					return res, fmt.Errorf("sim: cycle %d: %v pops empty %v queue %d", t, op, f.loc, f.q)
				}
				head := f.pop()
				wantIter := k - in.dist
				if head.prod != in.from || head.iter != wantIter {
					return res, fmt.Errorf("sim: cycle %d: %v iteration %d expected value (%v,%d), FIFO delivered (%v,%d): Q-compatibility violated",
						t, op, k, l.Ops[in.from], wantIter, l.Ops[head.prod], head.iter)
				}
				args = append(args, head.val)
			}
			v := ir.Eval(op, l.OrigIter(op, k), args)
			values[is.op*n+k] = v
			computed[is.op*n+k] = true
			res.Issues++
			if op.Kind == ir.KStore {
				stores[slots[is.op].at(k)] = Store{StoreKey{op.EffID(), l.OrigIter(op, k)}, v}
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
				return res, fmt.Errorf("sim: cycle %d: %v queue %d exceeds depth %d", t, f.loc, f.q, f.depth)
			}
			touched = touched[:0]
		}
		if r++; r == ii {
			blk, r = blk+1, 0
		}
	}
	a.args, a.touched = args, touched
	if minT <= maxT {
		res.Cycles = maxT - minT + 1
	}
	if err := drained(qs); err != nil {
		return res, err
	}
	res.Stores = stores
	return res, nil
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

// VerifyPipeline runs both executions over n iterations (0 = the loop's
// trip count) and compares their stores. It is the end-to-end check used
// by tests and cmd/vliwsched, with the single-write property enforced.
func VerifyPipeline(s *sched.Schedule, alloc *queue.Allocation, n int) error {
	return VerifyPipelineWith(s, alloc, PipeOptions{N: n})
}

// VerifyPipelineWith is VerifyPipeline under explicit pipelined-execution
// options; a loop compiled without copy insertion needs AllowMultiWrite.
// Both executions share one pooled arena, so a steady stream of
// verifications allocates only what the structural Verify calls and the
// topological sort do.
func VerifyPipelineWith(s *sched.Schedule, alloc *queue.Allocation, opt PipeOptions) error {
	if opt.N <= 0 {
		opt.N = s.Loop.TripCount()
	}
	a := arenaPool.Get().(*arena)
	defer arenaPool.Put(a)
	_, ref, err := a.reference(s.Loop, opt.N)
	if err != nil {
		return err
	}
	pipe, err := a.pipelined(s, alloc, opt)
	if err != nil {
		return err
	}
	return CompareStores(ref, pipe.Stores, false)
}

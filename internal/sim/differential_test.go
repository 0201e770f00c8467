package sim

// The differential harness for the dense template simulator (DESIGN.md §6).
// Pipelined (pipe.go) walks a one-II template over dense slabs; the
// test-only reference pipelinedRef (pipe_ref_test.go) is the map-based
// simulator it replaced. The tests here compile corpus loops over several
// machines, unroll factors and multi-write settings and demand identical
// PipeResults on the valid schedules, then break each schedule in small
// ways and demand the same verdict and the same error text from both.
// Every schedule and mutant also goes through the whole verify stage:
// VerifyPipeline (pooled arena, key-ordered store slabs) must match
// verifyPipelineRef, the map-based Reference, Pipelined and CompareStores
// it replaced. FuzzPipelinedDifferential drives the same comparison from
// fuzzed inputs.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/unroll"
)

// diffMachines are the machines the harness compiles for.
func diffMachines() []machine.Config {
	moves := machine.Clustered(6)
	moves.AllowMoves = true
	moves.Name += "+moves"
	lat := machine.Clustered(4)
	lat.CommLatency = 2
	lat.Name += "+lat2"
	return []machine.Config{machine.SingleCluster(6), machine.Clustered(4), moves, lat}
}

// diffCompile unrolls, optionally inserts copies, schedules and allocates.
func diffCompile(l *ir.Loop, cfg machine.Config, factor int, copies bool) (*sched.Schedule, *queue.Allocation, error) {
	if factor > 1 {
		u, err := unroll.Unroll(l, factor)
		if err != nil {
			return nil, nil, err
		}
		l = u
	}
	if copies {
		ins, err := copyins.Insert(l, copyins.Tree)
		if err != nil {
			return nil, nil, err
		}
		l = ins.Loop
	}
	s, err := sched.ScheduleLoop(l, cfg, sched.Options{})
	if err != nil {
		return nil, nil, err
	}
	return s, queue.Allocate(s), nil
}

// mutation breaks a compiled schedule or its allocation in one small way;
// pick selects which op or assignment it touches. It returns copies and
// leaves its inputs alone.
type mutation struct {
	name  string
	apply func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation)
}

func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Time = slices.Clone(s.Time)
	c.Cluster = slices.Clone(s.Cluster)
	c.Machine.Clusters = slices.Clone(s.Machine.Clusters)
	return &c
}

func cloneAlloc(a *queue.Allocation) *queue.Allocation {
	c := *a
	c.Assignments = slices.Clone(a.Assignments)
	return &c
}

// shiftOp applies change to one op of a copy of s: the first op, from
// pick on, whose changed schedule still passes Schedule.Verify (so the
// mutant reaches the simulator's own checks), else the op at pick.
func shiftOp(s *sched.Schedule, pick int, change func(c *sched.Schedule, op int)) *sched.Schedule {
	ops := len(s.Time)
	for i := 0; i < ops; i++ {
		c := cloneSchedule(s)
		change(c, (pick+i)%ops)
		if c.Verify() == nil {
			return c
		}
	}
	c := cloneSchedule(s)
	change(c, pick%ops)
	return c
}

var mutations = []mutation{
	{"time+1", func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation) {
		return shiftOp(s, pick, func(c *sched.Schedule, op int) { c.Time[op]++ }), a
	}},
	{"time-1", func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation) {
		return shiftOp(s, pick, func(c *sched.Schedule, op int) { c.Time[op]-- }), a
	}},
	{"cluster", func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation) {
		return shiftOp(s, pick, func(c *sched.Schedule, op int) {
			c.Cluster[op] = (c.Cluster[op] + 1) % c.Machine.NumClusters()
		}), a
	}},
	{"swap-queue", func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation) {
		c := cloneAlloc(a)
		as := c.Assignments
		if len(as) < 2 {
			return s, c
		}
		// Prefer a partner in the same file, so the swap reorders
		// residents instead of only renaming queues.
		i, j := pick%len(as), -1
		for k := range as {
			if k != i && as[k].Queue != as[i].Queue && (j < 0 || as[k].Loc == as[i].Loc && as[j].Loc != as[i].Loc) {
				j = k
			}
		}
		if j >= 0 {
			as[i].Queue, as[j].Queue = as[j].Queue, as[i].Queue
		}
		return s, c
	}},
	{"depth1", func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation) {
		c := cloneSchedule(s)
		for i := range c.Machine.Clusters {
			c.Machine.Clusters[i].QueueDepth = 1
		}
		return c, a
	}},
	{"drop", func(s *sched.Schedule, a *queue.Allocation, pick int) (*sched.Schedule, *queue.Allocation) {
		c := cloneAlloc(a)
		if len(c.Assignments) > 0 {
			c.Assignments = slices.Delete(c.Assignments, pick%len(c.Assignments), pick%len(c.Assignments)+1)
		}
		return s, c
	}},
}

// diffRun runs both simulators and fails the test unless they agree: the
// same verdict, the same error text, and DeepEqual results on success.
// Without multi-write it also runs the whole verify stage both ways and
// demands the same verdict and error text. It returns the simulators'
// shared error.
func diffRun(t testing.TB, label string, s *sched.Schedule, a *queue.Allocation, opt PipeOptions) error {
	t.Helper()
	got, gotErr := Pipelined(s, a, opt)
	want, wantErr := pipelinedRef(s, a, opt)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: verdicts differ:\n dense: %v\n   ref: %v", label, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ: dense cycles=%d issues=%d depth=%d stores=%d, ref cycles=%d issues=%d depth=%d stores=%d",
			label, got.Cycles, got.Issues, got.MaxDepth, len(got.Stores),
			want.Cycles, want.Issues, want.MaxDepth, len(want.Stores))
	}
	if !opt.AllowMultiWrite {
		v, vRef := VerifyPipeline(s, a, opt.N), verifyPipelineRef(s, a, opt.N)
		if fmt.Sprint(v) != fmt.Sprint(vRef) {
			t.Fatalf("%s: verify verdicts differ:\n arena: %v\n  maps: %v", label, v, vRef)
		}
	}
	return gotErr
}

// checkKinds classifies simulator errors by the check that raised them, so
// the harness can show its mutants reach the simulator's own checks rather
// than only the structural Verify calls in front of them.
var checkKinds = []string{
	"fanout", "no queue assignment", "write-port conflict", "read-port conflict",
	"before it was computed", "issues more", "pops empty", "Q-compatibility violated",
	"exceeds depth", "after drain",
}

func checkKind(err error) string {
	msg := err.Error()
	for _, k := range checkKinds {
		if strings.Contains(msg, k) {
			return k
		}
	}
	if strings.HasPrefix(msg, "sched:") || strings.HasPrefix(msg, "queue:") {
		return "structural"
	}
	return "other"
}

// TestPipelinedMatchesReference is the differential harness: corpus loops
// × machines × unroll factors 1-3 × multi-write off/on, each valid
// schedule plus every mutant of it, and the loop compiled without copy
// insertion.
func TestPipelinedMatchesReference(t *testing.T) {
	loops := corpus.Standard()[:24]
	if testing.Short() {
		loops = loops[:8]
	}
	iters := []int{1, 2, 7, 16, 33}
	kinds := map[string]int{}
	valid := 0
	for _, cfg := range diffMachines() {
		for factor := 1; factor <= 3; factor++ {
			for i, l := range loops {
				s, a, err := diffCompile(l, cfg, factor, true)
				if err != nil {
					continue // not schedulable here; nothing to simulate
				}
				n := iters[i%len(iters)]
				for _, multi := range []bool{false, true} {
					opt := PipeOptions{N: n, AllowMultiWrite: multi}
					label := fmt.Sprintf("%s on %s unroll %d multi=%v", l.Name, cfg.Name, factor, multi)
					if err := diffRun(t, label, s, a, opt); err != nil {
						t.Fatalf("%s: valid schedule rejected: %v", label, err)
					}
					valid++
					for j, m := range mutations {
						ms, ma := m.apply(s, a, i+j)
						if err := diffRun(t, label+" mutant "+m.name, ms, ma, opt); err != nil {
							kinds[checkKind(err)]++
						}
					}
				}
				raw, rawAlloc, err := diffCompile(l, cfg, factor, false)
				if err != nil {
					continue
				}
				for _, multi := range []bool{false, true} {
					label := fmt.Sprintf("%s on %s unroll %d without copies multi=%v", l.Name, cfg.Name, factor, multi)
					if err := diffRun(t, label, raw, rawAlloc, PipeOptions{N: n, AllowMultiWrite: multi}); err != nil {
						kinds[checkKind(err)]++
					}
				}
			}
		}
	}
	t.Logf("%d valid runs agree; mutant verdicts by check: %v", valid, kinds)
	if valid == 0 {
		t.Fatal("no schedule compiled")
	}
	// The mutants must keep reaching the simulator's own checks, not just
	// the structural Verify in front of them.
	for _, k := range []string{
		"fanout", "no queue assignment", "write-port conflict", "read-port conflict",
		"Q-compatibility violated", "exceeds depth", "structural",
	} {
		if kinds[k] == 0 {
			t.Errorf("no mutant tripped the %q check", k)
		}
	}
}

// twoQueueOverflow hand-builds a schedule whose two queues overflow depth 1
// in the same cycle: two loads feed two stores three cycles later at II 2,
// so both lifetimes hold two values at once and, being identical, cannot
// share a queue.
func twoQueueOverflow(t *testing.T) (*sched.Schedule, *queue.Allocation) {
	t.Helper()
	l := ir.New("overflow2")
	a, b := l.AddOp(ir.KLoad, "a"), l.AddOp(ir.KLoad, "b")
	sa, sb := l.AddOp(ir.KStore, "sa"), l.AddOp(ir.KStore, "sb")
	l.AddFlow(a, sa)
	l.AddFlow(b, sb)
	cfg := machine.SingleCluster(6)
	cfg.Clusters[0].QueueDepth = 1
	s := &sched.Schedule{Loop: l, Machine: cfg, II: 2, Time: []int{0, 0, 5, 5}, Cluster: []int{0, 0, 0, 0}}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	alloc := queue.Allocate(s)
	if len(alloc.Files) != 1 || alloc.Files[0].Queues != 2 {
		t.Fatalf("want one file of two queues, got %+v", alloc.Files)
	}
	return s, alloc
}

// TestPipelinedDiagnosticsDeterministic: when several queues fail the depth
// check in one cycle, or several fail to drain, both simulators name the
// first in (kind, from, to, queue) order, every run.
func TestPipelinedDiagnosticsDeterministic(t *testing.T) {
	s, alloc := twoQueueOverflow(t)
	const wantDepth = "sim: cycle 4: qrf0 queue 0 exceeds depth 1"
	for run := 0; run < 50; run++ {
		if _, err := Pipelined(s, alloc, PipeOptions{N: 8}); err == nil || err.Error() != wantDepth {
			t.Fatalf("run %d: dense simulator: got %v, want %q", run, err, wantDepth)
		}
		if _, err := pipelinedRef(s, alloc, PipeOptions{N: 8}); err == nil || err.Error() != wantDepth {
			t.Fatalf("run %d: reference: got %v, want %q", run, err, wantDepth)
		}
	}

	// A completed walk pops every value it pushed, so the drain check is
	// driven directly: two non-empty queues, the private one first in
	// (kind, from, to, queue) order.
	ring := queue.Location{Kind: queue.Ring, From: 1, To: 2}
	private := queue.Location{Kind: queue.Private, From: 3, To: 3}
	const wantDrain = "sim: qrf3 queue 2 still holds 1 values after drain"
	for run := 0; run < 50; run++ {
		table := []fifo{{loc: private, q: 2}, {loc: ring, q: 0}}
		for i := range table {
			table[i].push(tagged{})
		}
		if err := drained(table); err == nil || err.Error() != wantDrain {
			t.Fatalf("run %d: dense simulator: got %v, want %q", run, err, wantDrain)
		}
		queues := map[qid][]tagged{{ring, 0}: {{}}, {private, 2}: {{}}, {ring, 1}: nil}
		if err := refDrained(queues); err == nil || err.Error() != wantDrain {
			t.Fatalf("run %d: reference: got %v, want %q", run, err, wantDrain)
		}
	}
}

// TestFifoRingWraps: the ring buffer keeps FIFO order across growth and
// wrap-around.
func TestFifoRingWraps(t *testing.T) {
	var f fifo
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < round%7+1; i++ {
			f.push(tagged{iter: next})
			next++
		}
		for i := 0; i < round%5+1 && f.size > 0; i++ {
			if got := f.pop().iter; got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for f.size > 0 {
		if got := f.pop().iter; got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// FuzzPipelinedDifferential decodes its input into a corpus seed, a
// machine, an unroll factor, an iteration count, a multi-write setting and
// one mutation (or none, or compiling without copy insertion), and
// asserts that the dense simulator and the reference agree. Nightly
// fuzz.yml runs this target; crashers land in testdata/fuzz and are
// committed as regression seeds.
func FuzzPipelinedDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 5, 0, 0})
	f.Add([]byte{7, 3, 1, 2, 16, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [7]byte
		copy(in[:], data)
		seed := int64(in[0]) | int64(in[1])<<8
		machines := diffMachines()
		cfg := machines[int(in[2])%len(machines)]
		factor := 1 + int(in[3])%3
		n := 1 + int(in[4])%40
		multi := in[5]&1 != 0
		choice := int(in[6]) % (len(mutations) + 2) // none, mutations..., no copies
		pick := int(in[5] >> 1)

		l := corpus.Generate(corpus.Params{Seed: seed, N: 1, MaxOps: 40})[0]
		s, a, err := diffCompile(l, cfg, factor, choice != len(mutations)+1)
		if err != nil {
			return
		}
		label := fmt.Sprintf("seed %d on %s unroll %d n %d multi=%v", seed, cfg.Name, factor, n, multi)
		if choice >= 1 && choice <= len(mutations) {
			m := mutations[choice-1]
			s, a = m.apply(s, a, pick)
			label += " mutant " + m.name
		}
		err = diffRun(t, label, s, a, PipeOptions{N: n, AllowMultiWrite: multi})
		if choice == 0 && err != nil {
			t.Fatalf("%s: valid schedule rejected: %v", label, err)
		}
	})
}

package sim

import (
	"fmt"
	"sync"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

// storeCollision hand-builds a loop whose two stores share an EffID, so
// both write key (2, k) in every iteration: sa stores load a, sb stores
// load b. The reference runs sa before sb (topological order, smallest ID
// first); the schedule issues sb one cycle after sa, or before it when
// sbFirst is set.
func storeCollision(t *testing.T, sbFirst bool) (*sched.Schedule, *queue.Allocation) {
	t.Helper()
	l := ir.New("collide")
	a, b := l.AddOp(ir.KLoad, "a"), l.AddOp(ir.KLoad, "b")
	sa, sb := l.AddOp(ir.KStore, "sa"), l.AddOp(ir.KStore, "sb")
	sb.Orig = sa.ID
	l.AddFlow(a, sa)
	l.AddFlow(b, sb)
	times := []int{0, 0, 2, 3}
	if sbFirst {
		times[2], times[3] = 3, 2
	}
	s := &sched.Schedule{Loop: l, Machine: machine.SingleCluster(6), II: 4, Time: times, Cluster: []int{0, 0, 0, 0}}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	return s, queue.Allocate(s)
}

// TestStoreKeyCollision pins what happens when two store ops share a key:
// as with the store maps the slabs replaced, the later write wins, in
// execution order for each execution. So the verify stage passes when the
// schedule keeps the reference's store order and reports the first
// colliding key otherwise.
func TestStoreKeyCollision(t *testing.T) {
	s, alloc := storeCollision(t, false)
	ref, err := Reference(s.Loop, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Stores) != 4 {
		t.Fatalf("colliding stores fill %d keys over 4 iterations, want 4", len(ref.Stores))
	}
	for k, st := range ref.Stores {
		if want := (Store{StoreKey{2, k}, ir.LeafValue(1, k)}); st != want {
			t.Fatalf("store %d: got %+v, want %+v (sb's value, written last)", k, st, want)
		}
	}
	for _, n := range []int{1, 4} {
		if err := VerifyPipeline(s, alloc, n); err != nil {
			t.Fatalf("n=%d: same store order rejected: %v", n, err)
		}
		if err := verifyPipelineRef(s, alloc, n); err != nil {
			t.Fatalf("n=%d: map reference rejected the same store order: %v", n, err)
		}
		diffRun(t, fmt.Sprintf("collision n=%d", n), s, alloc, PipeOptions{N: n})
	}

	// Issuing sb first makes sa the pipelined winner of every key.
	s, alloc = storeCollision(t, true)
	want := fmt.Sprintf("sim: store {Op:2 Iter:0} differs: %d vs %d", ir.LeafValue(1, 0), ir.LeafValue(0, 0))
	for run := 0; run < 50; run++ {
		if err := VerifyPipeline(s, alloc, 4); fmt.Sprint(err) != want {
			t.Fatalf("run %d: got %v, want %q", run, err, want)
		}
	}
	// With one key the map composition is deterministic too, and agrees.
	diffRun(t, "reversed collision n=1", s, alloc, PipeOptions{N: 1})
	if err := verifyPipelineRef(s, alloc, 1); fmt.Sprint(err) != want {
		t.Fatalf("map reference: got %v, want %q", err, want)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestVerifyPipelineAllocs: once the pool holds a warm arena, a
// VerifyPipeline call allocates only its fixed per-call overhead (the
// structural Verify calls, Validate and the topological sort), never per
// iteration.
func TestVerifyPipelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so allocation counts vary")
	}
	s, a, err := diffCompile(corpus.FIR5(), machine.Clustered(4), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := VerifyPipeline(s, a, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	a16, a64 := allocs(16), allocs(64)
	t.Logf("allocations per VerifyPipeline call: %v at n=16, %v at n=64", a16, a64)
	if a64 > a16 {
		t.Fatalf("allocations grow with n: %v at n=16, %v at n=64", a16, a64)
	}
}

// TestVerifyPipelineConcurrent: goroutines verifying distinct schedules and
// mutants through the shared arena pool get exactly the serial verdicts.
func TestVerifyPipelineConcurrent(t *testing.T) {
	type job struct {
		s    *sched.Schedule
		a    *queue.Allocation
		n    int
		want string
	}
	var jobs []job
	for i, l := range corpus.Standard()[:8] {
		for _, cfg := range []machine.Config{machine.SingleCluster(6), machine.Clustered(4)} {
			s, a, err := diffCompile(l, cfg, 1+i%2, true)
			if err != nil {
				continue
			}
			n := 5 + 7*i
			jobs = append(jobs, job{s: s, a: a, n: n})
			for j, m := range mutations {
				ms, ma := m.apply(s, a, i+j)
				jobs = append(jobs, job{s: ms, a: ma, n: n})
			}
		}
	}
	rejected := 0
	for i := range jobs {
		jobs[i].want = fmt.Sprint(VerifyPipeline(jobs[i].s, jobs[i].a, jobs[i].n))
		if jobs[i].want != "<nil>" {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(jobs) {
		t.Fatalf("%d of %d jobs rejected: want a mix of verdicts", rejected, len(jobs))
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := &jobs[(i+w*len(jobs)/workers)%len(jobs)]
				if got := fmt.Sprint(VerifyPipeline(j.s, j.a, j.n)); got != j.want {
					t.Errorf("worker %d: %s: got %q, serial run gave %q", w, j.s.Loop.Name, got, j.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

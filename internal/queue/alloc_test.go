package queue_test

import (
	"testing"

	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
)

func compile(t *testing.T, l *ir.Loop, cfg machine.Config) *sched.Schedule {
	t.Helper()
	ins, err := copyins.Insert(l, copyins.Tree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleLoop(ins.Loop, cfg, sched.Options{})
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	return s
}

func TestAllocateVerifiesOnCorpus(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 51, N: 80})
	for _, cfg := range []machine.Config{machine.SingleCluster(6), machine.Clustered(4)} {
		for _, l := range loops {
			s := compile(t, l, cfg)
			a := queue.Allocate(s)
			if err := a.Verify(); err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			if len(a.Assignments) != countFlow(s.Loop) {
				t.Fatalf("%s: %d assignments for %d flow deps",
					l.Name, len(a.Assignments), countFlow(s.Loop))
			}
		}
	}
}

func countFlow(l *ir.Loop) int {
	n := 0
	for _, d := range l.Deps {
		if d.Kind == ir.Flow {
			n++
		}
	}
	return n
}

// TestAllocationLocations: same-cluster lifetimes go to the consumer's
// private QRF; cross-cluster lifetimes to the directed ring link, which
// must connect adjacent clusters.
func TestAllocationLocations(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 52, N: 40})
	cfg := machine.Clustered(4)
	for _, l := range loops {
		s := compile(t, l, cfg)
		a := queue.Allocate(s)
		for _, as := range a.Assignments {
			cp := s.Cluster[as.Lifetime.Dep.From]
			cc := s.Cluster[as.Lifetime.Dep.To]
			if cp == cc {
				if as.Loc.Kind != queue.Private || as.Loc.From != cp {
					t.Fatalf("%s: same-cluster lifetime mapped to %v", l.Name, as.Loc)
				}
			} else {
				if as.Loc.Kind != queue.Ring || as.Loc.From != cp || as.Loc.To != cc {
					t.Fatalf("%s: cross-cluster lifetime mapped to %v", l.Name, as.Loc)
				}
				if !cfg.Adjacent(cp, cc) {
					t.Fatalf("%s: ring link between non-adjacent clusters", l.Name)
				}
			}
		}
	}
}

// TestAllocationDeterministic: same schedule, same allocation.
func TestAllocationDeterministic(t *testing.T) {
	s := compile(t, corpus.Hydro(), machine.Clustered(4))
	a := queue.Allocate(s)
	b := queue.Allocate(s)
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatal("assignment counts differ")
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
}

// TestFirstFitNotWasteful: the allocator must share queues when lifetimes
// are compatible — a chain of single-consumer values with staggered
// lifetimes must not use one queue per value.
func TestFirstFitNotWasteful(t *testing.T) {
	s := compile(t, corpus.FIR5(), machine.SingleCluster(12))
	a := queue.Allocate(s)
	flow := countFlow(s.Loop)
	if a.MaxPrivateQueues() >= flow {
		t.Fatalf("first-fit used %d queues for %d lifetimes (no sharing at all)",
			a.MaxPrivateQueues(), flow)
	}
}

func TestFitsMachine(t *testing.T) {
	s := compile(t, corpus.Daxpy(), machine.Clustered(4))
	a := queue.Allocate(s)
	if err := a.FitsMachine(s); err != nil {
		t.Fatalf("daxpy exceeds the paper's cluster resources: %v", err)
	}
	// Shrink the declared resources below usage and expect a failure.
	tiny := s
	cfgCopy := s.Machine
	cfgCopy.Clusters = append([]machine.Cluster(nil), s.Machine.Clusters...)
	for i := range cfgCopy.Clusters {
		cfgCopy.Clusters[i].PrivateQueues = 0 // unconstrained
		cfgCopy.Clusters[i].QueueDepth = 0
	}
	tiny.Machine = cfgCopy
	if err := a.FitsMachine(tiny); err != nil {
		t.Fatalf("unconstrained machine rejected: %v", err)
	}
}

func TestMaxDepthMatchesOccupancy(t *testing.T) {
	s := compile(t, corpus.Wave2(), machine.SingleCluster(6))
	a := queue.Allocate(s)
	if a.MaxDepth() < 1 {
		t.Fatal("wave2 must keep at least one value resident")
	}
}

// TestAllocationVerifyRejections pins Allocation.Verify's verdict and error
// text. With several incompatible queues the report names the first in
// (location, queue) order — private files before ring links — on every
// call.
func TestAllocationVerifyRejections(t *testing.T) {
	lt := func(dep, start, end int) queue.Lifetime {
		return queue.Lifetime{Dep: ir.Dep{From: dep, To: dep + 1}, DepIndex: dep, Start: start, End: end}
	}
	qrf := func(c int) queue.Location { return queue.Location{Kind: queue.Private, From: c, To: c} }
	ring := queue.Location{Kind: queue.Ring, From: 0, To: 1}
	fine := []queue.Assignment{
		{Lifetime: lt(0, 0, 2), Loc: qrf(0), Queue: 0},
		{Lifetime: lt(1, 1, 3), Loc: qrf(0), Queue: 0},
	}
	// Same start and length: a FIFO cannot hold both (Theorem 1.1).
	badRing := []queue.Assignment{
		{Lifetime: lt(2, 0, 2), Loc: ring, Queue: 1},
		{Lifetime: lt(3, 0, 2), Loc: ring, Queue: 1},
	}
	badQRF := []queue.Assignment{
		{Lifetime: lt(4, 1, 2), Loc: qrf(1), Queue: 0},
		{Lifetime: lt(5, 1, 2), Loc: qrf(1), Queue: 0},
	}
	cat := func(parts ...[]queue.Assignment) []queue.Assignment {
		var out []queue.Assignment
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name string
		as   []queue.Assignment
		want string
	}{
		{"compatible", fine, ""},
		{"empty", nil, ""},
		{"ring queue", cat(fine, badRing), "queue: ring0->1 queue 1 holds incompatible lifetimes"},
		{"private before ring", cat(badRing, fine, badQRF), "queue: qrf1 queue 0 holds incompatible lifetimes"},
		// Queue indices past Verify's packed sort key share a key with
		// small ones; only residents of the same queue are compared.
		{"distinct queues sharing a sort key", []queue.Assignment{
			{Lifetime: lt(0, 0, 2), Loc: qrf(0), Queue: 0},
			{Lifetime: lt(1, 0, 2), Loc: qrf(0), Queue: 1 << 16},
		}, ""},
		{"large queue index", []queue.Assignment{
			{Lifetime: lt(0, 0, 2), Loc: qrf(0), Queue: 1 << 16},
			{Lifetime: lt(1, 0, 2), Loc: qrf(0), Queue: 0},
			{Lifetime: lt(2, 0, 2), Loc: qrf(0), Queue: 1 << 16},
		}, "queue: qrf0 queue 65536 holds incompatible lifetimes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := &queue.Allocation{II: 4, Assignments: c.as}
			for i := 0; i < 20; i++ {
				err := a.Verify()
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != c.want {
					t.Fatalf("Verify = %q, want %q", got, c.want)
				}
			}
		})
	}
}

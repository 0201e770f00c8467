package sched

import (
	"testing"

	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// verifyFixture is a hand-placed, valid II=3 schedule of
// s = x + y; store s on cluster 0 of a 4-cluster ring (one L/S unit per
// cluster, so the three memory ops take the three rows).
func verifyFixture() *Schedule {
	l := &ir.Loop{Name: "vfix"}
	l.AddOp(ir.KLoad, "x")
	l.AddOp(ir.KLoad, "y")
	l.AddOp(ir.KAdd, "s")
	l.AddOp(ir.KStore, "")
	l.AddDep(ir.Dep{From: 0, To: 2, Kind: ir.Flow})
	l.AddDep(ir.Dep{From: 1, To: 2, Kind: ir.Flow})
	l.AddDep(ir.Dep{From: 2, To: 3, Kind: ir.Flow})
	return &Schedule{
		Loop:    l,
		Machine: machine.Clustered(4),
		II:      3,
		Time:    []int{0, 1, 3, 5},
		Cluster: []int{0, 0, 0, 0},
	}
}

// TestVerifyRejections pins every rejection path of Schedule.Verify with
// its exact error text, one mutation of a valid schedule per case.
func TestVerifyRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Schedule)
		want   string // "" = valid
	}{
		{"valid", func(*Schedule) {}, ""},
		{"array size", func(s *Schedule) { s.Time = s.Time[:3] },
			"sched: schedule arrays do not match loop size"},
		{"unscheduled", func(s *Schedule) { s.Time[2] = -1 },
			"sched: add#2(s) is unscheduled"},
		{"invalid cluster", func(s *Schedule) { s.Cluster[1] = 4 },
			"sched: load#1(y) has invalid cluster 4"},
		{"dependence violated", func(s *Schedule) { s.Time[2] = 2 },
			"sched: dependence violated: 1->2 dist=0 flow (slack -1)"},
		{"carried dependence violated", func(s *Schedule) {
			s.Loop.AddDep(ir.Dep{From: 3, To: 0, Dist: 1, Kind: ir.Mem})
		}, "sched: dependence violated: 3->0 dist=1 mem (slack -3)"},
		{"oversubscribed row", func(s *Schedule) { copy(s.Time, []int{0, 3, 5, 7}) },
			"sched: row 0 cluster 0 oversubscribes L/S"},
		{"oversubscribed row on another cluster", func(s *Schedule) {
			copy(s.Cluster, []int{1, 1, 1, 1})
			copy(s.Time, []int{0, 1, 3, 4})
		}, "sched: row 1 cluster 1 oversubscribes L/S"},
		{"non-adjacent flow dep", func(s *Schedule) { s.Cluster[2] = 2 },
			"sched: flow dep 0->2 dist=0 flow spans non-adjacent clusters 0 and 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := verifyFixture()
			c.mutate(s)
			err := s.Verify()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("valid schedule rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("Verify accepted the schedule, want %q", c.want)
			case c.want != "" && err.Error() != c.want:
				t.Fatalf("Verify error %q, want %q", err, c.want)
			}
		})
	}
}

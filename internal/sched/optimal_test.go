package sched

// Tests for the certified branch-and-bound backend (Effort: optimal,
// exact.go + bound.go). The properties here are the tier's public
// contract, restated in DESIGN.md §14:
//
//   - optimal never returns a worse II than exhaustive;
//   - Bound.Lower >= MII always, and Bound.Lower <= II;
//   - Bound.Optimal implies II == Bound.Lower;
//   - a cancelled proof still returns a complete, Verify-clean incumbent;
//   - a budget-cut result reproduces run to run.

import (
	"context"
	"reflect"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// TestOptimalBoundContract is the stressed-corpus property test: over the
// loops whose partition quality decides II-optimality, the optimal tier
// must match-or-beat exhaustive and carry a self-consistent certificate.
func TestOptimalBoundContract(t *testing.T) {
	loops := corpus.Generate(corpusStress(48))
	improvedOrProved := 0
	for _, cfg := range []machine.Config{machine.Clustered(4), machine.Clustered(6)} {
		for _, l := range loops {
			ex, err := ScheduleLoop(l, cfg, Options{Effort: EffortExhaustive})
			if err != nil {
				t.Fatalf("%s on %s exhaustive: %v", l.Name, cfg.Name, err)
			}
			opt, err := ScheduleLoop(l, cfg, Options{Effort: EffortOptimal})
			if err != nil {
				t.Fatalf("%s on %s optimal: %v", l.Name, cfg.Name, err)
			}
			if err := opt.Verify(); err != nil {
				t.Fatalf("%s on %s: optimal schedule invalid: %v", l.Name, cfg.Name, err)
			}
			if opt.II > ex.II {
				t.Fatalf("%s on %s: optimal II %d worse than exhaustive %d", l.Name, cfg.Name, opt.II, ex.II)
			}
			b := opt.Bound
			if b.Lower < opt.MII() {
				t.Fatalf("%s on %s: Bound.Lower %d < MII %d", l.Name, cfg.Name, b.Lower, opt.MII())
			}
			if b.Lower > opt.II {
				t.Fatalf("%s on %s: Bound.Lower %d > II %d", l.Name, cfg.Name, b.Lower, opt.II)
			}
			if b.Optimal && opt.II != b.Lower {
				t.Fatalf("%s on %s: Optimal=true but II %d != Lower %d", l.Name, cfg.Name, opt.II, b.Lower)
			}
			if b.DeadlineCut {
				t.Fatalf("%s on %s: DeadlineCut without a deadline", l.Name, cfg.Name)
			}
			if ex.II > ex.MII() && (b.Optimal || opt.II < ex.II) {
				improvedOrProved++
			}
		}
	}
	if improvedOrProved == 0 {
		t.Fatalf("no exhaustive-gapped loop was proved optimal or improved; the exact search is not searching")
	}
}

// TestOptimalCancellation: an expired context cuts the proof but never the
// schedule — the portfolio incumbent comes back complete and Verify-clean,
// flagged unproved and deadline-cut. The end-to-end simulator check of the
// same property lives in the root package (TestOptimalEffortCancellation),
// where the pipeline's verify stage replays the incumbent.
func TestOptimalCancellation(t *testing.T) {
	cfg := machine.Clustered(6)
	l := findGappedLoop(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := ScheduleLoopContext(ctx, l, cfg, Options{Effort: EffortOptimal})
	if err != nil {
		t.Fatalf("cancelled optimal compile failed: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("incumbent invalid after cancellation: %v", err)
	}
	if s.Bound.Optimal {
		t.Fatalf("cancelled proof claims optimality (II=%d, Lower=%d)", s.II, s.Bound.Lower)
	}
	if !s.Bound.DeadlineCut {
		t.Fatalf("cancelled proof not flagged DeadlineCut")
	}
	if s.Bound.Lower != s.MII() {
		t.Fatalf("cancelled proof raised the bound: Lower=%d, MII=%d", s.Bound.Lower, s.MII())
	}
	// The incumbent must equal the exhaustive tier's schedule: cancellation
	// may only cost the certificate, never placement quality.
	ex, err := ScheduleLoop(l, cfg, Options{Effort: EffortExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if s.II != ex.II || !reflect.DeepEqual(s.Time, ex.Time) || !reflect.DeepEqual(s.Cluster, ex.Cluster) {
		t.Fatalf("cancelled incumbent differs from the exhaustive schedule (II %d vs %d)", s.II, ex.II)
	}
}

// TestOptimalBudgetCutDeterministic: a node-budget cut is deterministic —
// unlike a deadline cut it reproduces bit-for-bit, so it is not flagged
// DeadlineCut and stays cacheable.
func TestOptimalBudgetCutDeterministic(t *testing.T) {
	cfg := machine.Clustered(6)
	l := findGappedLoop(t, cfg)
	opts := Options{Effort: EffortOptimal, BudgetRatio: 1}
	var ref *Schedule
	for run := 0; run < 2; run++ {
		s, err := ScheduleLoop(l, cfg, opts)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if s.Bound.DeadlineCut {
			t.Fatalf("run %d: budget cut misreported as deadline cut", run)
		}
		if ref == nil {
			ref = s
			continue
		}
		if s.II != ref.II || s.Bound != ref.Bound ||
			!reflect.DeepEqual(s.Time, ref.Time) || !reflect.DeepEqual(s.Cluster, ref.Cluster) {
			t.Fatalf("optimal result differs between two runs (II %d vs %d, bound %+v vs %+v)",
				s.II, ref.II, s.Bound, ref.Bound)
		}
	}
}

// TestOptimalTrivialCertificates: the cases that skip the search entirely.
func TestOptimalTrivialCertificates(t *testing.T) {
	// A heuristic MII hit is proved optimal with zero search nodes.
	l := corpus.Daxpy()
	cfg := machine.Clustered(4)
	s, err := ScheduleLoop(l, cfg, Options{Effort: EffortOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if s.II == s.MII() {
		if !s.Bound.Optimal || s.Bound.Lower != s.II || s.Stats.PrunedNodes != 0 {
			t.Fatalf("MII hit not trivially certified: II=%d bound=%+v pruned=%d", s.II, s.Bound, s.Stats.PrunedNodes)
		}
	}
	// Heuristic tiers never set a certificate.
	for _, e := range []Effort{EffortFast, EffortBalanced, EffortExhaustive} {
		s, err := ScheduleLoop(l, cfg, Options{Effort: e})
		if err != nil {
			t.Fatal(err)
		}
		if s.Bound != (Bound{}) {
			t.Fatalf("effort %s set a bound: %+v", e, s.Bound)
		}
	}
	// Moves-extended machines keep the trivial MII certificate: the exact
	// model does not cover move insertion, so the bound must never rise.
	mv := machine.Clustered(6)
	mv.AllowMoves = true
	for _, l := range corpus.Generate(corpusStress(8)) {
		s, err := ScheduleLoop(l, mv, Options{Effort: EffortOptimal})
		if err != nil {
			t.Fatal(err)
		}
		if s.Bound.Lower != s.MII() || s.Bound.Optimal != (s.II == s.MII()) {
			t.Fatalf("%s with moves: bound %+v, II=%d, MII=%d", l.Name, s.Bound, s.II, s.MII())
		}
	}
}

// TestExactSearchRejectsInfeasibleII: the searcher run directly at an II
// below RecMII must never "find" a schedule — the positive-cycle test is
// the searcher's soundness in the rejecting direction. On the small
// hand-written kernels the proof also completes within budget (an actual
// exhaustion, not an abort); large stressed loops may legitimately burn
// the budget first, which is exactly what the budget is for.
func TestExactSearchRejectsInfeasibleII(t *testing.T) {
	cfg := machine.Clustered(4)
	proved := 0
	for _, l := range corpus.Kernels() {
		rec := RecMII(l)
		if rec < 2 {
			continue
		}
		if _, err := ResMII(l, cfg); err != nil {
			continue
		}
		ex := newExactSearcher(l, &cfg)
		switch got := ex.search(context.Background(), rec-1, 1<<20); got {
		case exactFound:
			t.Fatalf("%s: search found a schedule at II=%d < RecMII=%d", l.Name, rec-1, rec)
		case exactInfeasible:
			proved++
		}
	}
	if proved == 0 {
		t.Fatal("no kernel's sub-RecMII infeasibility was proved within budget")
	}
}

// TestExactFoundScheduleVerifies: every schedule the searcher materializes
// (stage counters recovered from the propagation potentials) satisfies the
// full Verify contract, on single-cluster and ring machines.
func TestExactFoundScheduleVerifies(t *testing.T) {
	cfgs := []machine.Config{machine.SingleCluster(4), machine.Clustered(4), machine.Clustered(6)}
	for _, cfg := range cfgs {
		for _, l := range corpus.Generate(corpusStress(8)) {
			resMII, err := ResMII(l, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recMII := RecMII(l)
			mii := resMII
			if recMII > mii {
				mii = recMII
			}
			ex := newExactSearcher(l, &cfg)
			for ii := mii; ii < mii+4; ii++ {
				st := ex.search(context.Background(), ii, 60000)
				if st != exactFound {
					continue
				}
				s := ex.schedule(cfg, ii, resMII, recMII)
				if err := s.Verify(); err != nil {
					t.Fatalf("%s on %s at II=%d: exact schedule invalid: %v", l.Name, cfg.Name, ii, err)
				}
				break
			}
		}
	}
}

// findGappedLoop returns the first stressed loop whose exhaustive schedule
// leaves II > MII on cfg — the population the optimal tier exists for.
func findGappedLoop(t *testing.T, cfg machine.Config) *ir.Loop {
	t.Helper()
	for _, l := range corpus.Generate(corpusStress(64)) {
		s, err := ScheduleLoop(l, cfg, Options{Effort: EffortExhaustive})
		if err != nil {
			continue
		}
		if s.II > s.MII() && len(s.Loop.Ops) == len(l.Ops) {
			return l
		}
	}
	t.Fatal("no gapped loop in the stressed slice")
	return nil
}

package sched

import (
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

func TestStrategyAndEffortNames(t *testing.T) {
	for e := Effort(0); e < numEfforts; e++ {
		got, err := ParseEffort(e.String())
		if err != nil || got != e {
			t.Fatalf("ParseEffort(%q) = %v, %v", e.String(), got, err)
		}
	}
	if e, err := ParseEffort(""); err != nil || e != EffortFast {
		t.Fatalf("empty effort = %v, %v; want fast", e, err)
	}
	if _, err := ParseEffort("extreme"); err == nil ||
		!strings.Contains(err.Error(), "balanced, exhaustive, fast, optimal") {
		t.Fatalf("ParseEffort error not sorted: %v", err)
	}
	if s := Strategy(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("out-of-range strategy string %q", s)
	}
	if s := Effort(200).String(); !strings.Contains(s, "200") {
		t.Fatalf("out-of-range effort string %q", s)
	}
}

func TestStrategySet(t *testing.T) {
	// Single-cluster machines collapse to baseline at any effort.
	if got := (Options{Effort: EffortExhaustive}).strategySet(1); !reflect.DeepEqual(got, []Strategy{StrategyBaseline}) {
		t.Fatalf("single cluster set = %v", got)
	}
	if got := (Options{}).strategySet(4); !reflect.DeepEqual(got, []Strategy{StrategyBaseline}) {
		t.Fatalf("fast set = %v", got)
	}
	if got := (Options{Effort: EffortExhaustive}).strategySet(4); len(got) != int(NumStrategies) {
		t.Fatalf("exhaustive set = %v", got)
	}
	// The test hook overrides the effort portfolio, order preserved.
	hook := []Strategy{StrategyRoundRobin, StrategyBaseline}
	if got := (Options{strategies: hook, Effort: EffortBalanced}).strategySet(4); !reflect.DeepEqual(got, hook) {
		t.Fatalf("explicit set = %v", got)
	}
}

// identityCorpus is the 64-loop bench corpus the satellite pins: the same
// loops bench_test.go and the e2e load generator replay.
func identityCorpus(t *testing.T) []*ir.Loop {
	t.Helper()
	return corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 64})
}

// TestEffortFastByteIdentity is the regression contract protecting golden
// files and cache keys: EffortFast — spelled as the zero value, explicitly,
// or as an explicit baseline-only portfolio — must reproduce the
// historical scheduler's placements exactly, operation by operation.
func TestEffortFastByteIdentity(t *testing.T) {
	loops := identityCorpus(t)
	variants := []Options{
		{Effort: EffortFast},
		{strategies: []Strategy{StrategyBaseline}},
	}
	for _, cfg := range []machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)} {
		for _, l := range loops {
			ref, err := ScheduleLoop(l, cfg, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			for vi, opts := range variants {
				got, err := ScheduleLoop(l, cfg, opts)
				if err != nil {
					t.Fatalf("%s on %s variant %d: %v", l.Name, cfg.Name, vi, err)
				}
				if got.II != ref.II || !reflect.DeepEqual(got.Time, ref.Time) || !reflect.DeepEqual(got.Cluster, ref.Cluster) {
					t.Fatalf("%s on %s variant %d: schedule differs from default options", l.Name, cfg.Name, vi)
				}
				if got.Strategy != StrategyBaseline || got.Stats.StrategiesTried != 0 {
					t.Fatalf("%s on %s variant %d: strategy=%v tried=%d, want baseline/0",
						l.Name, cfg.Name, vi, got.Strategy, got.Stats.StrategiesTried)
				}
			}
		}
	}
}

// scheduleDigest pins today's schedules as one number, so a future change
// that shifts any placement of the fast path anywhere in the bench corpus
// fails loudly instead of silently invalidating goldens and cache keys.
func scheduleDigest(t *testing.T, loops []*ir.Loop, cfgs []machine.Config) uint64 {
	t.Helper()
	h := fnv.New64a()
	writeInt := func(v int) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, cfg := range cfgs {
		for _, l := range loops {
			s, err := ScheduleLoop(l, cfg, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			h.Write([]byte(l.Name))
			writeInt(s.II)
			for id := range s.Loop.Ops {
				writeInt(s.Time[id])
				writeInt(s.Cluster[id])
			}
		}
	}
	return h.Sum64()
}

func TestFastScheduleDigestPinned(t *testing.T) {
	// Computed from the pre-portfolio scheduler; EffortFast must keep
	// producing it. Regenerate only for a deliberate, reviewed scheduler
	// behaviour change.
	const pinned = uint64(0xdf0ec0390bfa1535)
	got := scheduleDigest(t, identityCorpus(t),
		[]machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)})
	if got != pinned {
		t.Fatalf("fast-path schedule digest = %#x, want %#x", got, pinned)
	}
}

// TestFastWorkDigestPinned pins the fast tier's work counters the way
// TestFastScheduleDigestPinned pins its placements: Attempts, Placements
// and Evictions of every schedule of the same corpus and machines, folded
// into one FNV-64a word. perfbench's sched.attempts, sched.placements and
// sched.evictions read these counters, so a refactor of the driver must
// not move them. Regenerate only for a deliberate, reviewed change to the
// search itself.
func TestFastWorkDigestPinned(t *testing.T) {
	const pinned = uint64(0x9d5a08ced9a8ade4)
	h := fnv.New64a()
	writeInt := func(v int) {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, cfg := range []machine.Config{machine.SingleCluster(12), machine.Clustered(4), machine.Clustered(6)} {
		for _, l := range identityCorpus(t) {
			s, err := ScheduleLoop(l, cfg, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", l.Name, cfg.Name, err)
			}
			h.Write([]byte(l.Name))
			writeInt(s.Stats.Attempts)
			writeInt(s.Stats.Placements)
			writeInt(s.Stats.Evictions)
		}
	}
	if got := h.Sum64(); got != pinned {
		t.Fatalf("fast-path work-counter digest = %#x, want %#x", got, pinned)
	}
}

// TestPortfolioDeterministic: two runs of the portfolio must return the
// identical schedule — the determinism guarantee DESIGN.md §9 documents.
// CI runs it at -cpu 1,4.
func TestPortfolioDeterministic(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 11, N: 24, MinOps: 8})
	cfg := machine.Clustered(4)
	for _, l := range loops {
		var ref *Schedule
		for run := 0; run < 2; run++ {
			s, err := ScheduleLoop(l, cfg, Options{Effort: EffortExhaustive})
			if err != nil {
				t.Fatalf("%s run %d: %v", l.Name, run, err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("%s run %d: %v", l.Name, run, err)
			}
			if ref == nil {
				ref = s
				continue
			}
			if s.II != ref.II || s.Strategy != ref.Strategy ||
				!reflect.DeepEqual(s.Time, ref.Time) || !reflect.DeepEqual(s.Cluster, ref.Cluster) {
				t.Fatalf("%s: the second run disagrees with the first (II %d vs %d, strategy %v vs %v)",
					l.Name, s.II, ref.II, s.Strategy, ref.Strategy)
			}
		}
	}
}

// TestPortfolioStatsReproducible: the portfolio runs its strategies in a
// fixed order, so the work counters are a function of the input like the
// schedule itself. Two runs of each tier must agree on every Stats field
// as well as on II, Time and Cluster. CI runs it at -cpu 1,4: GOMAXPROCS
// must not reach the counters either.
func TestPortfolioStatsReproducible(t *testing.T) {
	cfg := machine.Clustered(6)
	loops := corpus.Stressed()[:48]
	for _, effort := range []Effort{EffortFast, EffortExhaustive, EffortOptimal} {
		for _, l := range loops {
			a, errA := ScheduleLoop(l, cfg, Options{Effort: effort})
			b, errB := ScheduleLoop(l, cfg, Options{Effort: effort})
			if errA != nil || errB != nil {
				t.Fatalf("%s %v: %v / %v", l.Name, effort, errA, errB)
			}
			if a.Stats != b.Stats {
				t.Fatalf("%s %v: stats differ between identical runs: %+v vs %+v", l.Name, effort, a.Stats, b.Stats)
			}
			if a.II != b.II || !reflect.DeepEqual(a.Time, b.Time) || !reflect.DeepEqual(a.Cluster, b.Cluster) {
				t.Fatalf("%s %v: schedules differ between identical runs (II %d vs %d)", l.Name, effort, a.II, b.II)
			}
		}
	}
}

// TestPortfolioNeverWorse: the portfolio contains the baseline, and the
// II ladder stops at the first schedulable II, so a portfolio schedule can
// only match or beat the baseline's II.
func TestPortfolioNeverWorse(t *testing.T) {
	loops := corpus.Generate(corpus.Params(corpusStress(48)))
	cfg := machine.Clustered(6)
	improved := 0
	for _, l := range loops {
		base, err := ScheduleLoop(l, cfg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		port, err := ScheduleLoop(l, cfg, Options{Effort: EffortExhaustive})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if port.II > base.II {
			t.Fatalf("%s: portfolio II %d worse than baseline %d", l.Name, port.II, base.II)
		}
		if port.II < base.II {
			improved++
		}
		if port.Stats.StrategiesTried != int(NumStrategies) {
			t.Fatalf("%s: StrategiesTried = %d", l.Name, port.Stats.StrategiesTried)
		}
	}
	if improved == 0 {
		t.Fatalf("exhaustive portfolio improved no loop of the stressed slice; the portfolio never helps")
	}
}

// corpusStress mirrors corpus.StressedParams at a test-sized N without
// importing the preset's memoized slice.
func corpusStress(n int) corpus.Params {
	p := corpus.StressedParams()
	p.N = n
	return p
}

func TestPortfolioExplicitStrategy(t *testing.T) {
	l := corpus.Daxpy()
	cfg := machine.Clustered(4)
	s, err := ScheduleLoop(l, cfg, Options{strategies: []Strategy{StrategyRoundRobin}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.Strategy != StrategyRoundRobin {
		t.Fatalf("strategy = %v, want round-robin", s.Strategy)
	}
	// A two-strategy portfolio records its width.
	s, err = ScheduleLoop(l, cfg, Options{strategies: []Strategy{StrategyLoadBalanced, StrategyRoundRobin}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.StrategiesTried != 2 {
		t.Fatalf("StrategiesTried = %d, want 2", s.Stats.StrategiesTried)
	}
}

func TestEffortPortfolios(t *testing.T) {
	if got := EffortFast.Strategies(); len(got) != 1 || got[0] != StrategyBaseline {
		t.Fatalf("fast portfolio = %v", got)
	}
	if got := EffortBalanced.Strategies(); len(got) != 3 || got[0] != StrategyBaseline {
		t.Fatalf("balanced portfolio = %v", got)
	}
	if got := EffortExhaustive.Strategies(); len(got) != int(NumStrategies) {
		t.Fatalf("exhaustive portfolio = %v", got)
	}
}

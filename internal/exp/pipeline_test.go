package exp

import (
	"bytes"
	"testing"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/sched"
)

func render(t *Table) string {
	var b bytes.Buffer
	t.Fprint(&b)
	return b.String()
}

// TestPipelineCacheMatchesUncached is the cache's determinism contract:
// every experiment must produce table-for-table identical output whether
// its compilations come from a shared Pipeline or run uncached.
func TestPipelineCacheMatchesUncached(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 11, N: 16})
	figs := []struct {
		name string
		fn   func(Options) *Table
	}{
		{"fig3", Fig3}, {"copycost", CopyCost},
		{"fig4", Fig4}, {"unrollqueues", UnrollQueues},
		{"fig6", Fig6}, {"clusterres", ClusterResources},
		{"fig8", Fig8}, {"fig9", Fig9},
		{"ablation-copyshape", AblationCopyShape},
		{"ablation-moves", AblationMoveOps},
		{"ablation-commlat", AblationCommLatency},
		{"ablation-invariants", AblationInvariants},
	}
	cached := Options{Loops: loops, Pipeline: NewPipeline()}
	uncached := Options{Loops: loops}
	for _, f := range figs {
		want := render(f.fn(uncached))
		got := render(f.fn(cached))
		if got != want {
			t.Errorf("%s: cached output differs from uncached:\n--- uncached ---\n%s--- cached ---\n%s", f.name, want, got)
		}
		// A second cached run — now fully served from the memo — must also
		// agree.
		if again := render(f.fn(cached)); again != want {
			t.Errorf("%s: cache-hit output differs from uncached", f.name)
		}
	}
}

// TestRunAllDeterministic runs the whole suite twice with independent
// caches and worker pools; the rendered bytes must match exactly.
func TestRunAllDeterministic(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 7, N: 12})
	var a, b bytes.Buffer
	RunAll(&a, Options{Loops: loops, Workers: 4})
	RunAll(&b, Options{Loops: loops, Workers: 1})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("RunAll output depends on run or worker count:\n--- run 1 ---\n%s--- run 2 ---\n%s", a.String(), b.String())
	}
}

// compileWith compiles l through p under vo, the way the experiments'
// sweeps do.
func compileWith(p *Pipeline, l *ir.Loop, vo vliwq.Options) (*vliwq.Result, error) {
	return Options{Pipeline: p}.compiler(vo)(l)
}

// TestPipelineKeySeparation ensures the options digest keeps distinct
// machines and compile options apart: a cache shared across experiments
// must never serve a compilation for the wrong configuration, and identical
// options must share one entry.
func TestPipelineKeySeparation(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	moves := machine.Clustered(4)
	moves.AllowMoves = true
	results := map[string]*vliwq.Result{}
	for _, c := range []struct {
		name string
		vo   vliwq.Options
	}{
		{"single4", vliwq.Options{Machine: machine.SingleCluster(4)}},
		{"single12", vliwq.Options{Machine: machine.SingleCluster(12)}},
		{"clustered4", vliwq.Options{Machine: machine.Clustered(4)}},
		{"moves", vliwq.Options{Machine: moves}},
		{"no copies", vliwq.Options{Machine: machine.SingleCluster(4), CopyShape: copyins.None}},
		{"chain", vliwq.Options{Machine: machine.SingleCluster(4), CopyShape: copyins.Chain}},
		{"factor2", vliwq.Options{Machine: machine.SingleCluster(4), UnrollFactor: 2}},
		{"balanced", vliwq.Options{Machine: machine.SingleCluster(4), Sched: sched.Options{Effort: sched.EffortBalanced}}},
	} {
		r, err := compileWith(p, l, c.vo)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		results[c.name] = r
	}
	if a, b := results["single4"], results["single12"]; a.Sched.II == b.Sched.II {
		t.Fatalf("4-FU and 12-FU compilations collided in the cache (II %d == %d)", a.Sched.II, b.Sched.II)
	}
	for _, name := range []string{"moves", "no copies", "chain", "factor2", "balanced"} {
		base := results["single4"]
		if name == "moves" {
			base = results["clustered4"]
		}
		if results[name] == base {
			t.Errorf("%s shares its base configuration's cache entry", name)
		}
	}
	// Identical inputs must share one entry (pointer-equal results).
	if again, _ := compileWith(p, l, vliwq.Options{Machine: machine.SingleCluster(4)}); again != results["single4"] {
		t.Fatalf("identical compilation did not hit the cache")
	}
}

// TestStandardCorpusMemoized verifies corpus.Standard returns the shared
// corpus instance, the property the cross-figure cache keys rely on.
func TestStandardCorpusMemoized(t *testing.T) {
	a, b := corpus.Standard(), corpus.Standard()
	if len(a) != corpus.PaperCorpusSize {
		t.Fatalf("standard corpus has %d loops", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Standard() regenerated loop %d", i)
		}
	}
}

// TestPipelineStatsCounters checks the refactored Pipeline exposes the
// shared cache's counters: a second identical compile is a hit, not a
// recompute.
func TestPipelineStatsCounters(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	vo := vliwq.Options{Machine: machine.SingleCluster(4)}
	compileWith(p, l, vo)
	compileWith(p, l, vo)
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
}

// TestPipelineStageNanos: the per-stage clocks count actual compilations
// only — a cache hit adds nothing — key by the facade's stage names, and
// never include verify: the figures run with the simulator off.
func TestPipelineStageNanos(t *testing.T) {
	p := NewPipeline()
	l := corpus.Daxpy()
	vo := vliwq.Options{Machine: machine.SingleCluster(4)}
	compileWith(p, l, vo)
	first := p.StageNanos()
	if first["schedule"] <= 0 || first["alloc"] <= 0 || first["copies"] <= 0 {
		t.Fatalf("stage nanos missing executed stages: %v", first)
	}
	if _, ok := first["verify"]; ok {
		t.Fatalf("the figures compile path ran the simulator: %v", first)
	}
	compileWith(p, l, vo) // hit
	if again := p.StageNanos()["schedule"]; again != first["schedule"] {
		t.Fatalf("a cache hit advanced the schedule clock: %d -> %d", first["schedule"], again)
	}
}

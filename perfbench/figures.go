package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/corpus"
	"vliwq/internal/exp"
	"vliwq/internal/ir"
	"vliwq/internal/service"
)

// figures: exp.RunAll — every table of the paper's evaluation — over a
// 128-loop corpus re-spelled by the seed, with a fresh exp.Pipeline per pass and two
// workers, the way vliwexp users reproduce the paper. Verification is off
// in exp, so the cost is unroll, copies, schedule and alloc.
const (
	figuresLoops   = 128
	figuresWorkers = 2
)

// figuresCorpus is the seed's figure corpus: the first figuresLoops loops
// of the paper corpus (what `vliwexp -n 128` runs), re-spelled by the
// seed.
func figuresCorpus(seed int64) []*ir.Loop {
	return respell(corpus.Standard()[:figuresLoops], seed, tagFigures)
}

// tables are exp.RunAll's tables in RunAll's order; the traced run calls
// them one by one so each gets a span.
var tables = []func(exp.Options) *exp.Table{
	exp.Fig3, exp.CopyCost, exp.Fig4, exp.UnrollQueues, exp.Fig6,
	exp.ClusterResources, exp.Fig8, exp.Fig9, exp.AblationCopyShape,
	exp.AblationMoveOps, exp.AblationCommLatency, exp.AblationInvariants,
}

// figuresPass runs one pass with a fresh pipeline. Untraced it calls
// exp.RunAll; traced it renders the same tables one at a time, a span
// around each, which must produce the same bytes.
func figuresPass(loops []*ir.Loop, tr *tracer, pass int64) ([]byte, *exp.Pipeline) {
	var b bytes.Buffer
	opts := exp.Options{Loops: loops, Workers: figuresWorkers, Pipeline: exp.NewPipeline()}
	if tr == nil {
		exp.RunAll(&b, opts)
		return b.Bytes(), opts.Pipeline
	}
	root := tr.start("exp.pass", pass, -1)
	for i, table := range tables {
		var t *exp.Table
		timed(tr, "exp."+tableIDs[i], pass, root, func() { t = table(opts) })
		t.Fprint(&b)
	}
	tr.end(root)
	return b.Bytes(), opts.Pipeline
}

// passStats are one pass's pipeline counters; the pipeline itself is
// dropped after the pass so passes do not pile up each other's caches.
type passStats struct {
	cache      cache.Stats
	stageNanos map[string]int64
}

type figuresPhase struct {
	t        timing
	outputs  [][]byte
	passes   []passStats
	counters [2]runtimeCounters
}

// figuresRun runs passes until the budget is spent.
func figuresRun(loops []*ir.Loop, budget time.Duration, tr *tracer) *figuresPhase {
	ph := &figuresPhase{}
	ph.counters[0] = readRuntime()
	for pass := int64(0); budget > 0; pass++ {
		runtime.GC()
		hw := watchHeap()
		t0 := time.Now()
		out, pipe := figuresPass(loops, tr, pass)
		d := time.Since(t0)
		ph.t.add(phase{calls: []callResult{{lat: d, done: true}}, elapsed: d, n: 1}, len(loops), hw.stopMB())
		ph.outputs = append(ph.outputs, out)
		ph.passes = append(ph.passes, passStats{cache: pipe.Stats(), stageNanos: pipe.StageNanos()})
		budget -= d
	}
	ph.counters[1] = readRuntime()
	return ph
}

func runFigures(cfg config) (*report, error) {
	loops, setup, err := timeSetups(func() ([]*ir.Loop, error) {
		loops := figuresCorpus(cfg.seed)
		exp.RunAll(io.Discard, exp.Options{Loops: loops, Workers: figuresWorkers}) // warm-up pass
		return loops, nil
	}, func([]*ir.Loop) {})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	untraced, traced, _ := twoPhases(cfg, rep, func(budget time.Duration, tr *tracer) (*figuresPhase, error) {
		return figuresRun(loops, budget, tr), nil
	})
	phases := []*figuresPhase{untraced}
	if traced != nil {
		phases = append(phases, traced)
	}

	// Off the clock: every pass must render the same bytes, and for the
	// default seed the bytes checked in under testdata.
	// exp runs no simulator verification, so no pass may record verify
	// time.
	first := phases[0].outputs[0]
	var verifyNanos int64
	for _, ph := range phases {
		for i, out := range ph.outputs {
			rep.attempted++
			if !bytes.Equal(out, first) {
				rep.fail("pass %d output differs from pass 0", i)
			}
			verifyNanos += ph.passes[i].stageNanos["verify"]
		}
	}
	invariant(rep, verifyNanos == 0, "no stage.verify time on figures (%dns)", verifyNanos)
	if cfg.seed == defaultSeed {
		rep.attempted++
		want, err := os.ReadFile(expectedFiguresPath(cfg))
		switch {
		case err != nil:
			rep.fail("expected figures output: %v", err)
		case !bytes.Equal(first, want):
			rep.fail("figures output differs from %s", expectedFiguresPath(cfg))
		}
	}
	rep.note("figures: %d attempted, %d succeeded, %d failed; error_rate %.6f",
		rep.attempted, rep.attempted-rep.failed, rep.failed, float64(rep.failed)/float64(rep.attempted))

	if !cfg.trace {
		ii, err := figuresIISum(loops)
		if err != nil {
			return nil, err
		}
		rep.set("setup_s", setup)
		rep.set("ii_sum", float64(ii))
		untraced.t.report(rep)
		return rep, nil
	}
	zeroLayers(rep)
	if err := figuresLayers(rep, loops, traced); err != nil {
		return nil, err
	}
	overhead(rep, untraced.t.p50(), traced.t.p50())
	return rep, nil
}

// figuresRequest is the headline configuration of the figures — the
// paper's 4-cluster machine with unrolling — as a request with the
// figures' verification setting (off).
func figuresRequest(l *ir.Loop) service.CompileRequest {
	req := coldRequest(vliwq.FormatLoop(l))
	req.SkipVerify = true
	return req
}

// figuresIISum is the II sum of the corpus at the headline configuration,
// compiled through the reference session: vliwq.Compiler's II on the
// figures corpus, not exp.Pipeline's, which exposes no per-loop schedule.
// exp's own schedules are guarded by the byte-equality of its tables to
// the expected output instead.
func figuresIISum(loops []*ir.Loop) (int, error) {
	reqs := make([]service.CompileRequest, len(loops))
	for i, l := range loops {
		reqs[i] = figuresRequest(l)
	}
	sum := 0
	for i, e := range expectAll(reqs) {
		if e.err != nil {
			return 0, fmt.Errorf("figures loop %d: %v", i, e.err)
		}
		sum += e.res.II
	}
	return sum, nil
}

// figuresLayers sets the figures' per-layer metrics: table spans, the
// pipelines' own cache and stage counters, and a stage-by-stage replay of
// the corpus at the headline configuration for the IR-size and scheduler
// counters.
func figuresLayers(rep *report, loops []*ir.Loop, ph *figuresPhase) error {
	tr := rep.spans
	var agg stageAgg
	for i, l := range loops {
		rid := int64(-1 - i)
		root := tr.start("replay.loop", rid, -1)
		ct, err := replayCompile(tr, rid, root, figuresRequest(l))
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replay of figures loop %d: %w", i, err)
		}
		agg.add(ct)
	}
	agg.report(rep)
	st := tr.stats()
	for _, id := range tableIDs {
		rep.set("exp."+id+"_ms", meanUS(st, "exp."+id)/1e3)
	}
	rep.set("sched.mii_us", meanUS(st, "sched.mii"))
	rep.set("ir.parse_us", meanUS(st, "ir.parse"))

	// Stage costs per compile come from the pipelines' own counters, the
	// real figure workload; the replay above only cross-checks them.
	nanos := map[string]int64{}
	var hits, misses int64
	for _, p := range ph.passes {
		for k, v := range p.stageNanos {
			nanos[k] += v
		}
		hits += p.cache.Hits
		misses += p.cache.Misses
	}
	crossCheck(rep, &agg, nanos, misses)
	for _, name := range []string{"unroll", "copies", "schedule", "alloc", "verify"} {
		rep.set("stage."+name+"_us", float64(nanos[name])/float64(max(misses, 1))/1e3)
	}
	var total int64
	for _, v := range nanos {
		total += v
	}
	rep.set("stage.verify_share", float64(nanos["verify"])/float64(max(total, 1)))
	passes := float64(len(ph.passes))
	rep.set("exp.pipeline_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	rep.set("exp.compiles", float64(misses)/passes)
	setRuntimeLayers(rep, ph.counters, ph.t.loops)
	rep.set("trace.spans", float64(tr.len()))
	_, verifySpan := st["stage.verify"]
	invariant(rep, !verifySpan, "no stage.verify span in the figures replay")
	return nil
}

func expectedFiguresPath(cfg config) string {
	return filepath.Join(cfg.testdata, fmt.Sprintf("figures-seed%d.txt", cfg.seed))
}

// writeExpectedFigures records the figures output of cfg.seed as the
// expected file the check compares against.
func writeExpectedFigures(cfg config) error {
	var b bytes.Buffer
	exp.RunAll(&b, exp.Options{Loops: figuresCorpus(cfg.seed), Workers: figuresWorkers})
	return os.WriteFile(expectedFiguresPath(cfg), b.Bytes(), 0o644)
}

// Package exp regenerates every table and figure of the paper's evaluation
// (see DESIGN.md §5 for the experiment index). Each experiment consumes a
// loop corpus, drives the full compilation pipeline (unrolling, copy
// insertion, modulo scheduling / partitioning, queue allocation) and
// reduces the outcomes to the statistic the paper plots.
package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"text/tabwriter"

	"vliwq"
	"vliwq/internal/cache"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/pool"
	"vliwq/internal/sched"
	"vliwq/internal/unroll"
)

// Options configure an experiment run.
type Options struct {
	// Loops is the corpus; nil uses corpus.Standard() (1258 loops).
	Loops []*ir.Loop
	// Workers bounds parallel loop compilation; 0 uses GOMAXPROCS.
	Workers int
	// Pipeline, when non-nil, memoizes compilations across experiments
	// sharing it: the figures compile heavily overlapping (loop, machine,
	// options) sets, and the cache collapses every repeat into a map hit.
	// RunAll installs one automatically. Nil compiles uncached.
	Pipeline *Pipeline
	// Effort raises the scheduler effort of every experiment that does not
	// pin its own (the portfolio sweep pins effort per row). The zero
	// value is sched.EffortFast — the historical behaviour.
	Effort sched.Effort
	// StressedLoops overrides the stressed corpus of the portfolio sweep;
	// nil uses corpus.Stressed().
	StressedLoops []*ir.Loop
}

func (o Options) loops() []*ir.Loop {
	if o.Loops != nil {
		return o.Loops
	}
	return corpus.Standard()
}

func (o Options) stressedLoops() []*ir.Loop {
	if o.StressedLoops != nil {
		return o.StressedLoops
	}
	return corpus.Stressed()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range t.Header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Pipeline is a concurrency-safe memo of compilations, keyed by the loop's
// identity plus a digest of the vliwq.Options it was compiled under. Every
// compilation runs through the library's staged engine (vliwq.CompileContext)
// with the simulator off, so figure schedules pass the same structural
// Schedule.Verify and Allocation.Verify checks as every other compile.
// Results are shared pointers and must be treated as read-only — which
// every experiment already does. The storage is a sharded
// internal/cache.Cache, so concurrent workers contend per shard and each
// distinct compilation runs exactly once behind its cache entry.
type Pipeline struct {
	c *cache.Cache[pipeKey, vliwq.BatchResult]

	// stageNanos accumulates, per vliwq.Stage, the Result.Stages clocks of
	// actual compilations (cache misses), so `vliwexp -stage-times` can
	// show where a figure run's time went.
	stageNanos [vliwq.NumStages]atomic.Int64
}

// NewPipeline returns an empty, unbounded compilation cache.
func NewPipeline() *Pipeline {
	return &Pipeline{c: cache.New[pipeKey, vliwq.BatchResult](cache.Options{}, hashPipeKey)}
}

// Stats snapshots the cache counters (hits, misses, entries).
func (p *Pipeline) Stats() cache.Stats { return p.c.Stats() }

// StageNanos reports the accumulated per-stage compile time, keyed by
// stage name (vliwq.Stage.String). Only stages with nonzero time appear.
func (p *Pipeline) StageNanos() map[string]int64 {
	out := make(map[string]int64, len(p.stageNanos))
	for i := range p.stageNanos {
		if n := p.stageNanos[i].Load(); n > 0 {
			out[vliwq.Stage(i).String()] = n
		}
	}
	return out
}

// pipeKey identifies one compilation. The loop is keyed by pointer: all
// experiments sharing a Pipeline also share their corpus slice (RunAll uses
// one Options value; corpus.Standard is memoized), so pointer identity is
// exactly loop identity and avoids hashing whole dependence graphs.
type pipeKey struct {
	loop *ir.Loop
	opts string // optionsDigest of the compile's vliwq.Options
	hash uint64 // cache.StringHash(opts), computed once per binding
}

// hashPipeKey spreads compilations over cache shards. Equality is still
// the full pipeKey — the hash only picks the shard.
func hashPipeKey(k pipeKey) uint64 { return cache.StringHash(k.loop.Name) ^ k.hash }

// optionsDigest renders every field of the compile options, the machine's
// name and cluster layout included, into a comparable key. It is built
// from the struct mechanically, so a field added to vliwq.Options or
// sched.Options keys the cache without anyone remembering to add it.
func optionsDigest(vo vliwq.Options) string {
	return fmt.Sprintf("%#v", vo)
}

// compiler binds the compile options and returns the per-loop compile
// function the experiments use inside their corpus sweeps. Verification
// by simulation is always off (the figures' cost is the schedules, not the
// simulator); the sweep-wide Options.Effort applies unless vo pins its
// own. The options are digested once here rather than once per loop, so
// the per-loop cache hit is just a map lookup.
func (o Options) compiler(vo vliwq.Options) func(*ir.Loop) (*vliwq.Result, error) {
	vo.SkipVerify = true
	// EffortFast is the zero value, so a pinned fast row is
	// indistinguishable from "unset" — the portfolio sweep clears the
	// sweep-wide effort before building its compilers instead.
	if vo.Sched.Effort == sched.EffortFast {
		vo.Sched.Effort = o.Effort
	}
	p := o.Pipeline
	if p == nil {
		return func(l *ir.Loop) (*vliwq.Result, error) {
			return vliwq.CompileContext(context.Background(), l, vo)
		}
	}
	d := optionsDigest(vo)
	h := cache.StringHash(d)
	return func(l *ir.Loop) (*vliwq.Result, error) {
		br := p.c.Do(pipeKey{loop: l, opts: d, hash: h}, func() vliwq.BatchResult {
			r, err := vliwq.CompileContext(context.Background(), l, vo)
			if err != nil {
				return vliwq.BatchResult{Err: err}
			}
			for _, st := range r.Stages {
				p.stageNanos[st.Stage].Add(st.Duration.Nanoseconds())
			}
			// The memo retains what the figures read — schedule,
			// allocation, factor — not the intermediate bodies.
			r.AfterUnroll, r.AfterCopies, r.Stages = nil, nil, nil
			return vliwq.BatchResult{Result: r}
		})
		return br.Result, br.Err
	}
}

// factorCompilers binds one compiler per forced unroll factor, indexed by
// factor (1..unroll.MaxAutoFactor; factor 1 does not unroll). Sweeps that
// unroll a loop by the factor another machine chose index it with that
// factor, keeping the options digest out of the per-loop path.
func (o Options) factorCompilers(vo vliwq.Options) []func(*ir.Loop) (*vliwq.Result, error) {
	out := make([]func(*ir.Loop) (*vliwq.Result, error), unroll.MaxAutoFactor+1)
	for f := 1; f < len(out); f++ {
		vo.UnrollFactor = f
		out[f] = o.compiler(vo)
	}
	return out
}

// forEach compiles fn over the corpus on the shared fixed worker pool
// (internal/pool), keeping result order aligned with the input order.
func forEach[T any](loops []*ir.Loop, workers int, fn func(l *ir.Loop) T) []T {
	out := make([]T, len(loops))
	pool.Run(context.Background(), len(loops), workers, func(i int) {
		out[i] = fn(loops[i])
	}, nil)
	return out
}

func pct(n, total int) string {
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// RunAll regenerates every figure and table in order and writes them to w.
// All experiments share one compilation cache: the figures' (loop, machine,
// options) sets overlap heavily, so each distinct compilation runs once.
// RunAll is deliberately the *paper's* evaluation only: the Portfolio
// sweep (this repo's extension, with its own stressed corpus and a 5x
// scheduling cost at exhaustive effort) runs explicitly via
// `vliwexp -fig portfolio`, keeping RunAll's output and BenchmarkRunAll's
// cost stable against the published baselines.
func RunAll(w io.Writer, opts Options) {
	if opts.Pipeline == nil {
		opts.Pipeline = NewPipeline()
	}
	for _, t := range []*Table{
		Fig3(opts),
		CopyCost(opts),
		Fig4(opts),
		UnrollQueues(opts),
		Fig6(opts),
		ClusterResources(opts),
		Fig8(opts),
		Fig9(opts),
		AblationCopyShape(opts),
		AblationMoveOps(opts),
		AblationCommLatency(opts),
		AblationInvariants(opts),
	} {
		t.Fprint(w)
	}
}

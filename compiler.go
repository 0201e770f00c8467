package vliwq

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"vliwq/internal/cache"
	"vliwq/internal/ir"
	"vliwq/internal/pool"
)

// CompilerConfig tunes a Compiler session. The zero value is a sensible
// session: library defaults ("single:6", fast effort), an unbounded class
// cache, GOMAXPROCS batch workers. Long-running sessions fed by untrusted
// request streams should bound the cache (the vliwd service bounds its
// session with the same -cache-entries bound as its response cache).
type CompilerConfig struct {
	// Machine is the session's default machine spec ("single:<n>" /
	// "clustered:<n>"), applied to requests that omit one; "" falls
	// through to the library default "single:6". An unparseable default
	// surfaces as a per-Run error.
	Machine string
	// Effort is the session's default scheduler effort, applied to
	// requests that omit one; "" falls through to "fast".
	Effort string
	// CacheEntries bounds the session's class cache: 0 means unbounded,
	// a negative value disables caching (every Run compiles). The cache is
	// keyed by Request.StructuralKey() plus the RunUntil cutoff, so every
	// renamed or statement-permuted spelling of one request shares one
	// compilation per session (DESIGN.md §12).
	CacheEntries int
	// Workers bounds RunBatch parallelism; 0 uses GOMAXPROCS.
	Workers int
}

// classEntry is the cached unit of a Compiler session: one isomorphism
// class's compile — the Result or error of the spelling that compiled it
// (compilation is deterministic, so errors cache as well as successes),
// plus that spelling's loop and skeleton, the gate every later spelling
// must pass before the Result is remapped onto its names.
type classEntry struct {
	res  *Result
	err  error
	loop *Loop
	skel string
}

// Compiler is a configured compilation session: session defaults plus an
// optional shared class cache over the staged pipeline engine. It is safe
// for concurrent use; cached Results are shared pointers and must be
// treated as read-only. Create one with NewCompiler.
type Compiler struct {
	cfg   CompilerConfig
	cache *cache.Cache[string, classEntry] // nil when caching is disabled
}

// NewCompiler builds a session from cfg. It never fails: an invalid
// session default (a bad Machine or Effort spec) surfaces as an error from
// the first Run that relies on it, exactly as if the request had carried
// the bad value itself.
func NewCompiler(cfg CompilerConfig) *Compiler {
	c := &Compiler{cfg: cfg}
	if cfg.CacheEntries >= 0 {
		c.cache = cache.New[string, classEntry](
			cache.Options{MaxEntries: cfg.CacheEntries}, cache.StringHash)
	}
	return c
}

// prepare applies the session defaults to a request and normalizes it.
func (c *Compiler) prepare(req Request) (Request, error) {
	if req.Machine == "" {
		req.Machine = c.cfg.Machine
	}
	if req.Effort == "" {
		req.Effort = c.cfg.Effort
	}
	err := req.Normalize()
	return req, err
}

// Served reports how one Compiler call was answered — what the vliwd
// service feeds into /stats and its latency SLO. A call that is neither
// Compiled nor Hit stopped waiting on another call's compile because its
// own context ended.
type Served struct {
	Compiled   bool // ran the pipeline (parse included): a class miss, or a spelling the class cannot serve
	Renumbered bool // Compiled: a statement permutation ir.AlignLike cannot map onto the class
	Hit        bool // the class's compile remapped onto the caller's names (an exact repeat: the identity)
	Reordered  bool // Hit after ir.AlignLike renumbered a permuted spelling into the class's order
	Joined     bool // Hit on a class compile still in flight when the call arrived
}

// Run compiles one request through the full pipeline: parse, unroll, copy
// insertion, partitioned modulo scheduling, queue allocation and — unless
// the request skips it — simulator verification. Fast-effort output is
// byte-identical to the historical Compile path (both run the same staged
// engine).
//
// The session's class cache holds one compile per isomorphism class
// (Request.StructuralKey). A renamed spelling is served by remapping the
// class's Result onto the caller's names — byte-identical to a fresh
// compile; a statement-permuted one is first renumbered into the class's
// statement order by ir.AlignLike (class-deterministic, DESIGN.md §12). A
// permuted spelling no alignment maps, or an error cached under other
// names, compiles fresh. The call that creates a class entry compiles
// under its own ctx (at effort "optimal" a deadline cuts the proof, not
// the compile); every other caller waits under its own ctx. Context errors
// are never cached, and a DeadlineCut Result is served only to the callers
// already waiting.
func (c *Compiler) Run(ctx context.Context, req Request) (*Result, error) {
	res, _, err := c.serve(ctx, req, StageVerify)
	return res, err
}

// RunServed is Run plus the report of how the call was served.
func (c *Compiler) RunServed(ctx context.Context, req Request) (*Result, Served, error) {
	return c.serve(ctx, req, StageVerify)
}

// RunUntil compiles a request but stops the pipeline after the named
// stage, returning a partial Result whose artifact fields (AfterUnroll,
// AfterCopies, Sched, Alloc) and Stages timings cover exactly the stages
// that ran — the staged mode behind vliwsched -dump-after. StageVerify
// runs the full pipeline (still honouring Request.SkipVerify). The cutoff
// is part of the class key: a partial artifact is never replayed as a
// full compilation or vice versa.
func (c *Compiler) RunUntil(ctx context.Context, req Request, until Stage) (*Result, error) {
	res, _, err := c.serve(ctx, req, until)
	return res, err
}

// serve is the class-cache ladder behind Run, RunServed and RunUntil.
func (c *Compiler) serve(ctx context.Context, req Request, until Stage) (*Result, Served, error) {
	if until >= NumStages {
		return nil, Served{}, fmt.Errorf("vliwq: unknown stage %d", uint8(until))
	}
	req, err := c.prepare(req)
	if err != nil {
		return nil, Served{}, err
	}
	compiled := Served{Compiled: true}
	loop, err := ParseLoop(req.Loop)
	if err != nil {
		return nil, compiled, err
	}
	if c.cache == nil {
		res, err := compile(ctx, req, loop, until)
		return res, compiled, err
	}
	key := req.structuralKey(loop) + ";until=" + until.String()
	ent, info, err := c.cache.DoContext(ctx, key, func() (classEntry, cache.Verdict) {
		res, err := compile(ctx, req, loop, until)
		ent := classEntry{res: res, err: err, loop: loop, skel: ir.Skeleton(loop)}
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The creator's deadline, not a property of the class.
			return ent, cache.Recompute
		case err == nil && res.Bound.DeadlineCut:
			// The proof depth records the creator's wall clock.
			return ent, cache.ServeThenDrop
		}
		return ent, cache.Keep
	})
	if err != nil {
		return nil, Served{}, err
	}
	if info.Created {
		return ent.res, compiled, ent.err
	}
	hit := Served{Hit: true, Joined: info.Joined}
	to, skel := loop, ir.Skeleton(loop)
	switch {
	case ent.err != nil:
		if skel == ent.skel && sameNames(loop, ent.loop) {
			return nil, hit, ent.err
		}
		// Error text can embed operand names: compile under the caller's
		// own names so the error reads exactly as a fresh compile's.
	case skel != ent.skel:
		aligned, ok := ir.AlignLike(loop, ent.loop)
		if !ok || ir.Skeleton(aligned) != ent.skel {
			compiled.Renumbered = true
			break
		}
		to, hit.Reordered = aligned, true
		fallthrough
	default:
		// RemapResult cannot fail past the skeleton gate; should it, the
		// request compiles fresh rather than fail on a cache-layer defect.
		if res, err := RemapResult(ent.res, to); err == nil {
			return res, hit, nil
		}
	}
	res, err := compile(ctx, req, loop, until)
	return res, compiled, err
}

// compile runs the staged engine on one prepared request's parsed loop.
func compile(ctx context.Context, req Request, loop *Loop, until Stage) (*Result, error) {
	opts, err := req.Options()
	if err != nil {
		return nil, err
	}
	return compileStaged(ctx, loop, opts, until)
}

// RunBatch compiles every request on a fixed pool of workers and returns
// the results in input order: out[i] always corresponds to reqs[i]. When
// ctx is cancelled, unstarted requests report ctx.Err() and the returned
// slice still has len(reqs) entries — the same contract as CompileBatch,
// which this supersedes for request-shaped inputs.
func (c *Compiler) RunBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool.Run(ctx, len(reqs), workers, func(i int) {
		r, err := c.RunUntil(ctx, reqs[i], StageVerify)
		out[i] = BatchResult{Result: r, Err: err}
	}, func(i int) {
		out[i] = BatchResult{Err: ctx.Err()}
	})
	return out
}

// CompilerStats snapshots a session's class-cache counters. It mirrors
// the internal cache counters so the facade's exported surface stays
// self-contained.
type CompilerStats struct {
	Hits      int64 // Run found its class's entry
	Misses    int64 // Run compiled (and cached) the class's entry
	Evictions int64 // entries dropped by the size bound
	Entries   int64 // current entry count
}

// Stats snapshots the session cache counters; a zero CompilerStats is
// returned when caching is disabled.
func (c *Compiler) Stats() CompilerStats {
	if c.cache == nil {
		return CompilerStats{}
	}
	st := c.cache.Stats()
	return CompilerStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}
}

package vliwq_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"vliwq"
	"vliwq/internal/corpus"
)

// TestCompilerRunMatchesCompile is the acceptance contract of the
// request-centric redesign, checked at both boundaries. Byte identity: a
// request's Run output must equal Compile fed the same request text (the
// historical service path — parse the wire loop, compile it), down to the
// kernel table. Semantic identity: against Compile on the original
// in-memory loop, every schedule number must agree (display names may
// differ there: FormatLoop has to name anonymous ops to reference their
// dependences, which is invisible to the schedule itself).
func TestCompilerRunMatchesCompile(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: corpus.DefaultSeed, N: 24})
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	opts := vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true, SkipVerify: true}
	for _, l := range loops {
		direct, derr := vliwq.Compile(l, opts)
		req := vliwq.NewRequest(l, opts)
		res, rerr := compiler.Run(context.Background(), req)
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("%s: Compile err %v, Compiler.Run err %v", l.Name, derr, rerr)
		}
		if derr != nil {
			if derr.Error() != rerr.Error() {
				t.Fatalf("%s: errors differ: %q vs %q", l.Name, derr, rerr)
			}
			continue
		}
		if res.II != direct.II || res.MII != direct.MII || res.Unrolled != direct.Unrolled ||
			res.StageCount != direct.StageCount ||
			res.Queues != direct.Queues || res.RingQueues != direct.RingQueues ||
			res.IPCStatic != direct.IPCStatic || res.IPCDynamic != direct.IPCDynamic ||
			res.Strategy != direct.Strategy {
			t.Fatalf("%s: metrics differ: Run %+v vs Compile %+v", l.Name, res, direct)
		}
		if res.Report() != direct.Report() {
			t.Fatalf("%s: reports differ:\n--- Run ---\n%s--- Compile ---\n%s", l.Name, res.Report(), direct.Report())
		}

		wireLoop, err := vliwq.ParseLoop(req.Loop)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		wireOpts, err := req.Options()
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		wire, werr := vliwq.Compile(wireLoop, wireOpts)
		if werr != nil {
			t.Fatalf("%s: wire-path Compile failed: %v", l.Name, werr)
		}
		if res.Report() != wire.Report() || res.KernelSchedule() != wire.KernelSchedule() {
			t.Fatalf("%s: Run output is not byte-identical to Compile on the same request text", l.Name)
		}
	}
}

// TestRunUntilStagedArtifacts walks the cutoffs in order and checks each
// partial Result exposes exactly the artifacts and timings of the stages
// that ran.
func TestRunUntilStagedArtifacts(t *testing.T) {
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1})
	req := vliwq.Request{Loop: testLoop, Machine: "clustered:4", Unroll: true}
	ctx := context.Background()

	stagesOf := func(r *vliwq.Result) string {
		names := make([]string, len(r.Stages))
		for i, st := range r.Stages {
			names[i] = st.Stage.String()
			if st.Duration < 0 {
				t.Fatalf("stage %s has negative duration %v", st.Stage, st.Duration)
			}
		}
		return strings.Join(names, ",")
	}

	r, err := compiler.RunUntil(ctx, req, vliwq.StageUnroll)
	if err != nil {
		t.Fatal(err)
	}
	if r.AfterUnroll == nil || r.Sched != nil || r.Alloc != nil {
		t.Fatalf("after unroll: %+v", r)
	}
	if r.Unrolled < 2 {
		t.Fatalf("automatic unrolling did not replicate (factor %d)", r.Unrolled)
	}
	if len(r.AfterUnroll.Ops) != r.Unrolled*len(r.Input.Ops) {
		t.Fatalf("unrolled body has %d ops for factor %d over %d", len(r.AfterUnroll.Ops), r.Unrolled, len(r.Input.Ops))
	}
	if got := stagesOf(r); got != "unroll" {
		t.Fatalf("stages %q after unroll cutoff", got)
	}

	r, err = compiler.RunUntil(ctx, req, vliwq.StageCopies)
	if err != nil {
		t.Fatal(err)
	}
	if r.AfterCopies == nil || r.Sched != nil {
		t.Fatalf("after copies: %+v", r)
	}
	if len(r.AfterCopies.Ops) < len(r.AfterUnroll.Ops) {
		t.Fatal("copy insertion shrank the body")
	}
	if got := stagesOf(r); got != "unroll,copies" {
		t.Fatalf("stages %q after copies cutoff", got)
	}

	r, err = compiler.RunUntil(ctx, req, vliwq.StageSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched == nil || r.Alloc != nil || r.II == 0 {
		t.Fatalf("after schedule: %+v", r)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule" {
		t.Fatalf("stages %q after schedule cutoff", got)
	}

	r, err = compiler.RunUntil(ctx, req, vliwq.StageAlloc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Alloc == nil || r.Queues == 0 || r.IPCStatic == 0 {
		t.Fatalf("after alloc: %+v", r)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule,alloc" {
		t.Fatalf("stages %q after alloc cutoff", got)
	}

	// A full verified run records all five stages; SkipVerify drops the
	// last one.
	r, err = compiler.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule,alloc,verify" {
		t.Fatalf("stages %q after a full run", got)
	}
	skip := req
	skip.SkipVerify = true
	r, err = compiler.Run(ctx, skip)
	if err != nil {
		t.Fatal(err)
	}
	if got := stagesOf(r); got != "unroll,copies,schedule,alloc" {
		t.Fatalf("stages %q with SkipVerify", got)
	}

	if _, err := compiler.RunUntil(ctx, req, vliwq.NumStages); err == nil {
		t.Fatal("RunUntil accepted an out-of-range stage")
	}
}

// TestCompilerSessionCache: identical requests share one compilation (and
// one Result pointer), different RunUntil cutoffs do not, and the
// default spellings of one behaviour collapse onto one entry.
func TestCompilerSessionCache(t *testing.T) {
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{})
	ctx := context.Background()
	req := vliwq.Request{Loop: testLoop, SkipVerify: true}

	a, err := compiler.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compiler.Run(ctx, vliwq.Request{Loop: testLoop, Machine: "single:6", CopyShape: "tree", Effort: "fast", SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("default spellings of one request compiled twice in one session")
	}
	if st := compiler.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("session cache misses=%d hits=%d, want 1/1", st.Misses, st.Hits)
	}
	// A partial run is a distinct cached artifact, never replayed as full.
	p, err := compiler.RunUntil(ctx, req, vliwq.StageUnroll)
	if err != nil {
		t.Fatal(err)
	}
	if p == a || p.Sched != nil {
		t.Fatal("partial run replayed the full-run entry")
	}
	if st := compiler.Stats(); st.Misses != 2 {
		t.Fatalf("cutoff did not partition the cache key (misses=%d)", st.Misses)
	}
}

// TestCompilerSessionDefaults: a session's Machine/Effort apply to
// requests that omit them and are overridden by explicit request fields;
// a bad session default surfaces as a Run error.
func TestCompilerSessionDefaults(t *testing.T) {
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "clustered:4", Effort: "balanced", CacheEntries: -1})
	ctx := context.Background()
	res, err := compiler.Run(ctx, vliwq.Request{Loop: testLoop, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sched.Machine.Spec(); got != "clustered:4" {
		t.Fatalf("session default machine not applied (got %s)", got)
	}
	res, err = compiler.Run(ctx, vliwq.Request{Loop: testLoop, Machine: "single:4", SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sched.Machine.Spec(); got != "single:4" {
		t.Fatalf("explicit request machine lost to the session default (got %s)", got)
	}

	bad := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "mesh:4"})
	if _, err := bad.Run(ctx, vliwq.Request{Loop: testLoop}); err == nil || !strings.Contains(err.Error(), "unknown machine kind") {
		t.Fatalf("bad session default machine: err %v", err)
	}
}

// budgetCtx is a poll-only context whose Err starts reporting
// context.Canceled after a fixed number of calls — a deterministic way to
// cancel "mid-batch": the pipeline polls Err at its stage boundaries (3
// calls per compile) and the worker-pool feeder polls once per dispatched
// item, so a budget of ~100 calls lands the cancellation a predictable
// 16–25 items into a 40-item batch, far from both ends.
type budgetCtx struct {
	context.Context
	calls  atomic.Int64
	budget int64
}

func (c *budgetCtx) Err() error {
	if c.calls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

// Done returns nil: pool.Run's feeder also polls Err before every
// dispatch, so channel-based cancellation is not needed for this test.
func (c *budgetCtx) Done() <-chan struct{} { return nil }

// assertCancelledBatch checks the mid-batch cancellation contract on a
// result slice: full length, every entry exactly one of result/error,
// completed items keep their results (a prefix, since workers=1), and
// every unstarted item reports ctx.Err().
func assertCancelledBatch(t *testing.T, n int, get func(i int) (ok bool, err error)) {
	t.Helper()
	completed, cancelled := 0, 0
	for i := 0; i < n; i++ {
		ok, err := get(i)
		if ok == (err != nil) {
			t.Fatalf("entry %d: want exactly one of result/error (ok=%t err=%v)", i, ok, err)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("entry %d: error %v, want ctx.Err()", i, err)
		}
		if ok {
			if cancelled > 0 {
				t.Fatalf("entry %d completed after entry %d was cancelled (workers=1)", i, i-1)
			}
			completed++
		} else {
			cancelled++
		}
	}
	if completed == 0 || cancelled == 0 {
		t.Fatalf("cancellation not mid-batch: %d completed, %d cancelled of %d", completed, cancelled, n)
	}
}

// TestCompileBatchCancellationMidBatch: cancel mid-batch and assert the
// returned slice keeps len(items) entries, completed items keep their
// results, and every unstarted item reports ctx.Err().
func TestCompileBatchCancellationMidBatch(t *testing.T) {
	loop, err := vliwq.ParseLoop(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	items := make([]vliwq.BatchItem, n)
	for i := range items {
		items[i] = vliwq.BatchItem{Loop: loop, Opts: vliwq.Options{SkipVerify: true}}
	}
	ctx := &budgetCtx{Context: context.Background(), budget: 100}
	out := vliwq.CompileBatch(ctx, items, 1)
	if len(out) != n {
		t.Fatalf("batch returned %d entries for %d items", len(out), n)
	}
	assertCancelledBatch(t, n, func(i int) (bool, error) { return out[i].Result != nil, out[i].Err })
}

// TestRunBatchCancellationMidBatch is the same contract on the
// request-centric path (an uncached session, so in-flight compiles honour
// the caller's context).
func TestRunBatchCancellationMidBatch(t *testing.T) {
	const n = 40
	reqs := make([]vliwq.Request, n)
	for i := range reqs {
		reqs[i] = vliwq.Request{Loop: testLoop, SkipVerify: true}
	}
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1, Workers: 1})
	ctx := &budgetCtx{Context: context.Background(), budget: 100}
	out := compiler.RunBatch(ctx, reqs)
	if len(out) != n {
		t.Fatalf("batch returned %d entries for %d requests", len(out), n)
	}
	assertCancelledBatch(t, n, func(i int) (bool, error) { return out[i].Result != nil, out[i].Err })
}

// TestBatchCancelledBeforeStart: an already-cancelled context yields a
// full-length slice where every entry reports ctx.Err().
func TestBatchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	loop, err := vliwq.ParseLoop(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	out := vliwq.CompileBatch(ctx, []vliwq.BatchItem{{Loop: loop}, {Loop: loop}}, 2)
	if len(out) != 2 {
		t.Fatalf("got %d entries", len(out))
	}
	for i, r := range out {
		if r.Result != nil || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("entry %d: %+v", i, r)
		}
	}
	rout := vliwq.NewCompiler(vliwq.CompilerConfig{}).RunBatch(ctx, []vliwq.Request{{Loop: testLoop}, {Loop: testLoop}})
	if len(rout) != 2 {
		t.Fatalf("got %d entries", len(rout))
	}
	for i, r := range rout {
		if r.Result != nil || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request entry %d: %+v", i, r)
		}
	}
}

// heavyLoop is a loop whose verified, exhaustive, 16x-unrolled compile
// takes long enough (tens of milliseconds) to be joined mid-flight.
func heavyLoop() string {
	var b strings.Builder
	b.WriteString("loop heavy\ntrip 256\n")
	prev := ""
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "op l%d load\n", i)
		if prev == "" {
			prev = fmt.Sprintf("l%d", i)
			continue
		}
		fmt.Fprintf(&b, "op m%d mul %s l%d\n", i, prev, i)
		prev = fmt.Sprintf("m%d", i)
	}
	fmt.Fprintf(&b, "op st store %s\n", prev)
	return b.String()
}

// TestCachedRunHonoursCallerContext: a caller joining an in-flight cached
// compile stops waiting when its own context is cancelled and gets
// ctx.Err(), while the shared compile carries on under its creator's
// context, completes, and is cached for the next caller.
func TestCachedRunHonoursCallerContext(t *testing.T) {
	compiler := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "clustered:4"})
	req := vliwq.Request{Loop: heavyLoop(), UnrollFactor: 16, Effort: "exhaustive"}

	type outcome struct {
		res *vliwq.Result
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		res, err := compiler.Run(context.Background(), req)
		leader <- outcome{res, err}
	}()
	for compiler.Stats().Misses == 0 { // the leader owns the entry
		runtime.Gosched()
	}

	ctx, cancel := context.WithCancel(context.Background())
	joiner := make(chan outcome, 1)
	go func() {
		res, err := compiler.Run(ctx, req)
		joiner <- outcome{res, err}
	}()
	for compiler.Stats().Hits == 0 { // the joiner found the entry in flight
		runtime.Gosched()
	}
	cancel()
	j := <-joiner
	if j.res != nil || !errors.Is(j.err, context.Canceled) {
		t.Fatalf("cancelled joiner got (%v, %v), want context.Canceled", j.res, j.err)
	}
	select {
	case <-leader:
		t.Fatal("the leader finished before the joiner was cancelled; the compile is too light to test the wait")
	default:
	}

	l := <-leader
	if l.err != nil {
		t.Fatalf("leader: %v", l.err)
	}
	again, err := compiler.Run(context.Background(), req)
	if err != nil || again != l.res {
		t.Fatalf("completed compile was not cached: (%p, %v) vs leader %p", again, err, l.res)
	}
	if st := compiler.Stats(); st.Misses != 1 {
		t.Fatalf("session compiled %d times, want 1", st.Misses)
	}
}

// classLoop and its two re-spellings exercise the session's class cache:
// classRenamed renames every name (ops and loop) and keeps the statement
// order; classPermuted swaps the first two loads — same fingerprint class,
// different skeleton.
const (
	classLoop = `loop daxpy
trip 200
op a load
op x load
op y load
op m mul a
op s add m y
op st store s
carried s m 1
mem st a 1
`
	classRenamed = `loop zloop
trip 200
op p0 load
op p1 load
op p2 load
op q0 mul p0
op q1 add q0 p2
op w store q1
carried q1 q0 1
mem w p0 1
`
	classPermuted = `loop daxpy
trip 200
op x load
op a load
op y load
op m mul a
op s add m y
op st store s
carried s m 1
mem st a 1
`
)

// TestCompilerClassCacheServesRenamedSpelling: a renamed spelling of a
// compiled loop costs the session no second miss, and its Result renders
// byte-identically to an uncached session compiling it from scratch.
func TestCompilerClassCacheServesRenamedSpelling(t *testing.T) {
	ctx := context.Background()
	session := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "clustered:4"})
	uncached := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "clustered:4", CacheEntries: -1})
	if _, err := session.Run(ctx, vliwq.Request{Loop: classLoop}); err != nil {
		t.Fatal(err)
	}
	got, how, err := session.RunServed(ctx, vliwq.Request{Loop: classRenamed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncached.Run(ctx, vliwq.Request{Loop: classRenamed})
	if err != nil {
		t.Fatal(err)
	}
	if got.Report() != want.Report() || got.KernelSchedule() != want.KernelSchedule() {
		t.Fatalf("class-served spelling differs from a fresh compile:\n%s\n%s\nvs\n%s\n%s",
			got.Report(), got.KernelSchedule(), want.Report(), want.KernelSchedule())
	}
	if how != (vliwq.Served{Hit: true}) {
		t.Fatalf("served = %+v, want a plain class hit", how)
	}
	if st := session.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("session misses=%d hits=%d, want 1/1", st.Misses, st.Hits)
	}
}

// TestCompilerClassCacheReordersPermutedSpelling: a statement-permuted
// spelling is renumbered into the class's statement order and served from
// the class compile, under the caller's names, deterministically across
// identically-warmed sessions.
func TestCompilerClassCacheReordersPermutedSpelling(t *testing.T) {
	ctx := context.Background()
	var reports []string
	for i := 0; i < 2; i++ {
		session := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "clustered:4"})
		if _, err := session.Run(ctx, vliwq.Request{Loop: classLoop}); err != nil {
			t.Fatal(err)
		}
		res, how, err := session.RunServed(ctx, vliwq.Request{Loop: classPermuted})
		if err != nil {
			t.Fatal(err)
		}
		if !how.Hit || !how.Reordered || how.Compiled {
			t.Fatalf("served = %+v, want a reordered class hit", how)
		}
		if st := session.Stats(); st.Misses != 1 {
			t.Fatalf("session misses = %d, want 1", st.Misses)
		}
		if err := res.Sched.Verify(); err != nil {
			t.Fatalf("reordered schedule does not verify: %v", err)
		}
		if res.Input.Name != "daxpy" || res.Input.Ops[0].Name != "a" {
			t.Fatalf("reordered result not in the class's statement order: %s", vliwq.FormatLoop(res.Input))
		}
		reports = append(reports, res.Report()+res.KernelSchedule())
	}
	if reports[0] != reports[1] {
		t.Fatal("reordered hit differs across identically-warmed sessions")
	}
}

// TestCompilerClassErrorUnderCallerNames: a class whose compile fails
// (single:1 has no load/store unit, and the error names the loop) answers
// a renamed spelling with the error a fresh compile of that spelling
// gives, while an exact repeat replays the cached error.
func TestCompilerClassErrorUnderCallerNames(t *testing.T) {
	ctx := context.Background()
	session := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "single:1"})
	uncached := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "single:1", CacheEntries: -1})
	_, first := session.Run(ctx, vliwq.Request{Loop: classLoop})
	if first == nil || !strings.Contains(first.Error(), `"daxpy"`) {
		t.Fatalf("class compile error = %v, want one naming the loop", first)
	}
	_, how, got := session.RunServed(ctx, vliwq.Request{Loop: classRenamed})
	_, want := uncached.Run(ctx, vliwq.Request{Loop: classRenamed})
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("renamed spelling error %v, want the fresh compile's %v", got, want)
	}
	if !how.Compiled {
		t.Fatalf("served = %+v, want a compile under the caller's names", how)
	}
	_, how, again := session.RunServed(ctx, vliwq.Request{Loop: classLoop})
	if again == nil || again.Error() != first.Error() || !how.Hit {
		t.Fatalf("exact repeat = (%+v, %v), want the cached error as a hit", how, again)
	}
	if st := session.Stats(); st.Misses != 1 {
		t.Fatalf("session misses = %d, want 1", st.Misses)
	}
}

// TestCompilerCancelledLeaderKeepsNothing: a compile cut by its creator's
// cancellation is not cached, so the next Run compiles.
func TestCompilerCancelledLeaderKeepsNothing(t *testing.T) {
	session := vliwq.NewCompiler(vliwq.CompilerConfig{Machine: "clustered:4"})
	req := vliwq.Request{Loop: heavyLoop(), UnrollFactor: 16, Effort: "exhaustive"}
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := session.Run(ctx, req)
		leader <- err
	}()
	for session.Stats().Misses == 0 { // the leader owns the entry
		runtime.Gosched()
	}
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	if st := session.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled compile left %d entries cached", st.Entries)
	}
	res, how, err := session.RunServed(context.Background(), req)
	if err != nil || res == nil || !how.Compiled {
		t.Fatalf("next Run = (%+v, %v), want a fresh compile", how, err)
	}
	if st := session.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("session misses=%d entries=%d, want 2/1", st.Misses, st.Entries)
	}
}

// TestCompilerOptimalDeadlineCutNotKept: at effort "optimal" an expired
// context cuts the proof, not the compile — Run returns an incumbent
// flagged DeadlineCut — and that wall-clock-dependent certificate is not
// kept: the next Run proves afresh.
func TestCompilerOptimalDeadlineCutNotKept(t *testing.T) {
	// A loop whose exhaustive schedule leaves an II gap, so a cut proof is
	// observably unproved.
	search := vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1})
	p := corpus.StressedParams()
	p.N = 48
	var req vliwq.Request
	for _, l := range corpus.Generate(p) {
		r := vliwq.Request{Loop: vliwq.FormatLoop(l), Machine: "clustered:6",
			CommLatency: 2, Effort: "exhaustive", SkipVerify: true}
		if res, err := search.Run(context.Background(), r); err == nil && res.II > res.MII {
			req = r
			break
		}
	}
	if req.Loop == "" {
		t.Fatal("no exhaustive-gapped loop in the stressed slice")
	}
	req.Effort = "optimal"

	session := vliwq.NewCompiler(vliwq.CompilerConfig{})
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := session.Run(expired, req)
	if err != nil {
		t.Fatalf("expired context failed the compile instead of cutting the proof: %v", err)
	}
	if res.Bound.Optimal || !res.Bound.DeadlineCut {
		t.Fatalf("bound = %+v, want an unproved deadline-cut incumbent", res.Bound)
	}
	if st := session.Stats(); st.Entries != 0 {
		t.Fatalf("deadline-cut result kept (%d entries)", st.Entries)
	}
	again, how, err := session.RunServed(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !how.Compiled || again.Bound.DeadlineCut {
		t.Fatalf("next Run = (%+v, %+v), want a fresh, uncut proof", how, again.Bound)
	}
}

package vliwq_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/corpus"
)

const testLoop = `
loop fir2
trip 100
op c0 load
op x0 load
op c1 load
op x1 load
op m0 mul c0 x0
op m1 mul c1 x1
op s  add m0 m1
op st store s
`

func TestCompileQuickstart(t *testing.T) {
	loop, err := vliwq.ParseLoop(testLoop)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vliwq.Compile(loop, vliwq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.II < res.Sched.ResMII {
		t.Fatalf("II=%d below ResMII=%d", res.II, res.Sched.ResMII)
	}
	if res.IPCStatic <= 0 || res.IPCDynamic <= 0 {
		t.Fatal("nonpositive IPC")
	}
	if res.Queues < 1 {
		t.Fatal("no queues allocated")
	}
	rep := res.Report()
	for _, frag := range []string{"fir2", "II=", "IPC"} {
		if !strings.Contains(rep, frag) {
			t.Fatalf("report missing %q:\n%s", frag, rep)
		}
	}
	if res.KernelSchedule() == "" {
		t.Fatal("empty kernel schedule")
	}
}

func TestCompileClusteredVerified(t *testing.T) {
	// Compile runs the cycle-accurate verification by default; a passing
	// compile is a machine-checked end-to-end run.
	for _, k := range []string{"hydro", "complexmul", "wave2"} {
		loop := corpus.KernelByName(k)
		res, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.RingQueues < 0 {
			t.Fatalf("%s: bad ring usage", k)
		}
	}
}

// TestCompileCopiesOffVerified: without copy insertion a value with
// several consumers writes all their queues at once (the paper's Fig. 1(c)
// baseline). Compile must verify such loops on a multi-write machine
// rather than reject them for their fanout.
func TestCompileCopiesOffVerified(t *testing.T) {
	loops := corpus.Standard()[:64]
	for _, m := range []vliwq.Machine{vliwq.SingleCluster(4), vliwq.Clustered(4)} {
		for _, l := range loops {
			if _, err := vliwq.Compile(l, vliwq.Options{Machine: m, CopyShape: copyins.None}); err != nil {
				t.Fatalf("%s on %s: %v", l.Name, m.Name, err)
			}
		}
	}
}

func TestCompileOptionsValidation(t *testing.T) {
	if _, err := vliwq.Compile(nil, vliwq.Options{}); err == nil {
		t.Fatal("nil loop accepted")
	}
	bad, err := vliwq.ParseLoop("loop x\nop a add\nop st store a")
	if err != nil {
		t.Fatal(err)
	}
	// Forced factor 1 is invalid (must be >= 2 or use Unroll).
	if _, err := vliwq.Compile(bad, vliwq.Options{UnrollFactor: 1}); err != nil {
		t.Fatalf("factor 1 should be treated as no unrolling: %v", err)
	}
}

func TestCompileUnrollFactorApplied(t *testing.T) {
	loop := corpus.KernelByName("stencil3")
	res, err := vliwq.Compile(loop, vliwq.Options{Machine: vliwq.SingleCluster(6), UnrollFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unrolled != 2 {
		t.Fatalf("unroll factor %d, want 2", res.Unrolled)
	}
	if len(res.Sched.Loop.Ops) < 2*len(loop.Ops) {
		t.Fatal("unrolled body too small")
	}
}

func TestCompileSkipVerify(t *testing.T) {
	loop := corpus.KernelByName("daxpy")
	res, err := vliwq.Compile(loop, vliwq.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.II < 1 {
		t.Fatal("bad II")
	}
}

func TestReadLoop(t *testing.T) {
	l, err := vliwq.ReadLoop(strings.NewReader(testLoop))
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "fir2" || len(l.Ops) != 8 {
		t.Fatalf("parsed %s with %d ops", l.Name, len(l.Ops))
	}
}

func TestParseMachine(t *testing.T) {
	tests := []struct {
		spec     string
		clusters int
		wantErr  bool
	}{
		{"single:6", 1, false},
		{"clustered:4", 4, false},
		{"single:0", 0, true},
		{"single:x", 0, true},
		{"torus:4", 0, true},
		{"single", 0, true},
		// Sizes are bounded so a hostile spec cannot size allocations.
		{"clustered:500000000", 0, true},
		{"single:513", 0, true},
		{"clustered:512", 512, false},
	}
	for _, tt := range tests {
		m, err := vliwq.ParseMachine(tt.spec)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMachine(%q) err = %v, wantErr %t", tt.spec, err, tt.wantErr)
			continue
		}
		if err == nil && m.NumClusters() != tt.clusters {
			t.Errorf("ParseMachine(%q) = %d clusters, want %d", tt.spec, m.NumClusters(), tt.clusters)
		}
	}
}

func TestFormatLoopRoundTrips(t *testing.T) {
	loop := corpus.KernelByName("daxpy")
	back, err := vliwq.ParseLoop(vliwq.FormatLoop(loop))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != loop.Name || len(back.Ops) != len(loop.Ops) {
		t.Fatalf("round trip changed the loop: %s/%d ops vs %s/%d ops",
			back.Name, len(back.Ops), loop.Name, len(loop.Ops))
	}
}

// TestCompileBatchMatchesCompile is the batch API's ordering and fidelity
// contract: results arrive at the index of their request and are identical
// to one-at-a-time Compile calls.
func TestCompileBatchMatchesCompile(t *testing.T) {
	loops := corpus.Generate(corpus.Params{Seed: 5, N: 12})
	items := make([]vliwq.BatchItem, len(loops))
	opts := vliwq.Options{Machine: vliwq.Clustered(4), Unroll: true, SkipVerify: true}
	for i, l := range loops {
		items[i] = vliwq.BatchItem{Loop: l, Opts: opts}
	}
	got := vliwq.CompileBatch(context.Background(), items, 4)
	if len(got) != len(items) {
		t.Fatalf("batch returned %d results for %d items", len(got), len(items))
	}
	for i, l := range loops {
		want, wantErr := vliwq.Compile(l, opts)
		if (got[i].Err != nil) != (wantErr != nil) {
			t.Fatalf("item %d: batch err %v, direct err %v", i, got[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got[i].Result.Input != l {
			t.Fatalf("item %d: result is for the wrong loop", i)
		}
		if got[i].Result.Report() != want.Report() {
			t.Fatalf("item %d: batch report differs from direct compile:\n%s\nvs\n%s",
				i, got[i].Result.Report(), want.Report())
		}
	}
}

func TestCompileBatchEmptyAndWorkerClamp(t *testing.T) {
	if out := vliwq.CompileBatch(context.Background(), nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	// More workers than items must not deadlock or drop results.
	items := []vliwq.BatchItem{{Loop: corpus.KernelByName("daxpy"), Opts: vliwq.Options{SkipVerify: true}}}
	out := vliwq.CompileBatch(context.Background(), items, 64)
	if len(out) != 1 || out[0].Err != nil {
		t.Fatalf("single-item batch: %+v", out)
	}
}

func TestCompileBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work starts
	loops := corpus.Generate(corpus.Params{Seed: 3, N: 8})
	items := make([]vliwq.BatchItem, len(loops))
	for i, l := range loops {
		items[i] = vliwq.BatchItem{Loop: l, Opts: vliwq.Options{SkipVerify: true}}
	}
	out := vliwq.CompileBatch(ctx, items, 2)
	if len(out) != len(items) {
		t.Fatalf("cancelled batch returned %d results for %d items", len(out), len(items))
	}
	for i, r := range out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := vliwq.CompileContext(ctx, corpus.KernelByName("daxpy"), vliwq.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptimalEffortCancellation: at Effort optimal the deadline bounds the
// proof, never the compilation. An already-expired context still produces a
// complete result — simulator-verified, since the verify stage runs — with
// the certificate flagged unproved and deadline-cut. This is the end-to-end
// half of internal/sched's TestOptimalCancellation.
func TestOptimalEffortCancellation(t *testing.T) {
	// Copy insertion raises ResMII enough that zero-latency rings leave no
	// II gap on this corpus; inter-cluster latency restores the population
	// the optimal tier exists for.
	cfg := vliwq.Clustered(6)
	cfg.CommLatency = 2
	p := corpus.StressedParams()
	p.N = 48
	exOpts := vliwq.Options{Machine: cfg, SkipVerify: true}
	exOpts.Sched.Effort = vliwq.EffortExhaustive
	var loop *vliwq.Loop
	for _, l := range corpus.Generate(p) {
		res, err := vliwq.Compile(l, exOpts)
		if err != nil {
			continue
		}
		if res.II > res.MII {
			loop = l
			break
		}
	}
	if loop == nil {
		t.Fatal("no exhaustive-gapped loop in the stressed slice")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := vliwq.Options{Machine: cfg}
	opts.Sched.Effort = vliwq.EffortOptimal
	res, err := vliwq.CompileContext(ctx, loop, opts)
	if err != nil {
		t.Fatalf("cancelled optimal compile failed: %v", err)
	}
	if res.Bound.Optimal {
		t.Fatalf("cancelled proof claims optimality: %+v", res.Bound)
	}
	if !res.Bound.DeadlineCut {
		t.Fatalf("cancelled proof not flagged deadline-cut: %+v", res.Bound)
	}
	if res.Bound.Lower != res.MII {
		t.Fatalf("cancelled proof raised the bound: Lower=%d, MII=%d", res.Bound.Lower, res.MII)
	}
	verified := false
	for _, st := range res.Stages {
		if st.Stage == vliwq.StageVerify {
			verified = true
		}
	}
	if !verified {
		t.Fatal("verify stage did not run on the cancelled-proof incumbent")
	}
	if !strings.Contains(res.Report(), "optimal: lower-bound=") {
		t.Fatalf("report missing the certificate line:\n%s", res.Report())
	}
}

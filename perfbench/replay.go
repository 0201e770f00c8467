package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/metrics"
	"vliwq/internal/queue"
	"vliwq/internal/sched"
	"vliwq/internal/service"
	"vliwq/internal/sim"
	"vliwq/internal/unroll"
)

// The traced run replays a sample of the timed phase's requests off the
// clock, calling each layer's public function inside a span. Replays run
// one at a time, so a span's wall time is that layer's cost without
// contention; the cross-check against the program's own stage counters
// shows how far the loaded run differs.

// sample returns k indices evenly spaced over [0, n), or all n when n <= k.
func sample(n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	for j := range out {
		out[j] = j * n / k
	}
	return out
}

// timed runs fn inside a span and returns its wall time.
func timed(tr *tracer, name string, req int64, parent int32, fn func()) time.Duration {
	id := tr.start(name, req, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return d
}

// compileTrace is one replayed compile.
type compileTrace struct {
	opsIn, opsUnrolled, opsCopies int
	sched                         *sched.Schedule
	stages                        [vliwq.NumStages]time.Duration
}

// replayCompile re-runs one request's pipeline stage by stage through the
// public functions the staged engine (vliwq.Compiler) calls, in its order:
// parse, unroll, copy insertion, MII, scheduling, allocation, verification.
// MII is also computed inside scheduling; sched.mii times it on its own.
func replayCompile(tr *tracer, rid int64, parent int32, r service.CompileRequest) (compileTrace, error) {
	var ct compileTrace
	if err := r.Normalize(); err != nil {
		return ct, err
	}
	opts, err := r.Options()
	if err != nil {
		return ct, err
	}
	cfg := opts.Machine
	var loop *ir.Loop
	timed(tr, "ir.parse", rid, parent, func() { loop, err = vliwq.ParseLoop(r.Loop) })
	if err != nil {
		return ct, err
	}
	ct.opsIn = len(loop.Ops)

	work, factor := loop, 1
	ct.stages[vliwq.StageUnroll] = timed(tr, "stage.unroll", rid, parent, func() {
		switch {
		case opts.UnrollFactor >= 2:
			factor = opts.UnrollFactor
		case opts.Unroll:
			factor = unroll.AutoFactor(loop, cfg)
		}
		if factor > 1 {
			work, err = unroll.Unroll(loop, factor)
		}
	})
	if err != nil {
		return ct, err
	}
	ct.opsUnrolled = len(work.Ops)

	var ins *copyins.Result
	ct.stages[vliwq.StageCopies] = timed(tr, "stage.copies", rid, parent, func() {
		ins, err = copyins.Insert(work, opts.CopyShape)
	})
	if err != nil {
		return ct, err
	}
	ct.opsCopies = len(ins.Loop.Ops)

	timed(tr, "sched.mii", rid, parent, func() {
		_, err = sched.ResMII(ins.Loop, cfg)
		_ = sched.RecMII(ins.Loop)
	})
	if err != nil {
		return ct, err
	}

	var s *sched.Schedule
	ct.stages[vliwq.StageSchedule] = timed(tr, "stage.schedule", rid, parent, func() {
		s, err = sched.ScheduleLoopContext(context.Background(), ins.Loop, cfg, opts.Sched)
		if err == nil {
			err = s.Verify()
		}
	})
	if err != nil {
		return ct, err
	}
	ct.sched = s

	var alloc *queue.Allocation
	ct.stages[vliwq.StageAlloc] = timed(tr, "stage.alloc", rid, parent, func() {
		alloc = queue.Allocate(s)
		err = alloc.Verify()
		iters := loop.TripCount() / factor
		if iters < 1 {
			iters = 1
		}
		_ = metrics.IPCStatic(s)
		_ = metrics.IPCDynamic(s, iters)
	})
	if err != nil {
		return ct, err
	}

	if !opts.SkipVerify {
		ct.stages[vliwq.StageVerify] = timed(tr, "stage.verify", rid, parent, func() {
			n := s.Loop.TripCount()
			if n > 64 {
				n = 64
			}
			err = sim.VerifyPipeline(s, alloc, n)
		})
	}
	return ct, err
}

// decodeRequest replays the service's body decode (unknown fields
// rejected, as vliwd does) inside a span.
func decodeRequest(tr *tracer, rid int64, parent int32, body []byte) (service.CompileRequest, error) {
	var req service.CompileRequest
	var err error
	timed(tr, "service.decode", rid, parent, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	return req, err
}

// keyRequest replays the key derivations every request pays: Normalize
// and Canonical (the exact cache key and the gateway's coalescing key).
func keyRequest(tr *tracer, rid int64, parent int32, req service.CompileRequest) service.CompileRequest {
	timed(tr, "request.normalize", rid, parent, func() { _ = req.Normalize() })
	timed(tr, "request.canonical", rid, parent, func() { _ = req.Canonical() })
	return req
}

// renderEncode replays rendering a compiled Result and framing it as JSON.
func renderEncode(tr *tracer, rid int64, parent int32, res *vliwq.Result, effort string) error {
	var resp *service.CompileResponse
	timed(tr, "service.render", rid, parent, func() { resp = render(res, effort) })
	var err error
	timed(tr, "service.encode", rid, parent, func() { _, err = encodeJSON(resp) })
	return err
}

// stageAgg accumulates replayed compiles into the stage, IR-size and
// scheduler metrics.
type stageAgg struct {
	n                          int
	stages                     [vliwq.NumStages]time.Duration
	opsIn, opsUnroll, opsCopy  int
	iiSum, miiSum, atMII       int
	attempts, placements, evic int
	strategies, portfolio, won int
	pruned                     int64
}

func (a *stageAgg) add(ct compileTrace) {
	a.n++
	for i, d := range ct.stages {
		a.stages[i] += d
	}
	a.opsIn += ct.opsIn
	a.opsUnroll += ct.opsUnrolled
	a.opsCopy += ct.opsCopies
	s := ct.sched
	a.iiSum += s.II
	a.miiSum += s.MII()
	if s.II == s.MII() {
		a.atMII++
	}
	a.attempts += s.Stats.Attempts
	a.placements += s.Stats.Placements
	a.evic += s.Stats.Evictions
	a.strategies += s.Stats.StrategiesTried
	if s.Stats.StrategiesTried > 0 {
		a.portfolio++
		if s.Strategy != sched.StrategyBaseline {
			a.won++
		}
	}
	a.pruned += s.Stats.PrunedNodes
}

// total is the summed replayed time of every stage.
func (a *stageAgg) total() time.Duration {
	var t time.Duration
	for _, d := range a.stages {
		t += d
	}
	return t
}

// report sets the stage, IR and scheduler metrics: per-compile means, and
// ratios over all replayed compiles.
func (a *stageAgg) report(r *report) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	us := func(st vliwq.Stage) float64 { return float64(a.stages[st].Nanoseconds()) / n / 1e3 }
	r.set("stage.unroll_us", us(vliwq.StageUnroll))
	r.set("stage.copies_us", us(vliwq.StageCopies))
	r.set("stage.schedule_us", us(vliwq.StageSchedule))
	r.set("stage.alloc_us", us(vliwq.StageAlloc))
	r.set("stage.verify_us", us(vliwq.StageVerify))
	r.set("ir.ops_in", float64(a.opsIn)/n)
	r.set("ir.ops_after_unroll", float64(a.opsUnroll)/n)
	r.set("ir.ops_after_copies", float64(a.opsCopy)/n)
	r.set("sched.attempts", float64(a.attempts)/n)
	r.set("sched.placements", float64(a.placements)/n)
	r.set("sched.evictions", float64(a.evic)/n)
	r.set("sched.ii_over_mii", float64(a.iiSum)/float64(a.miiSum))
	r.set("sched.at_mii_ratio", float64(a.atMII)/n)
	r.set("sched.strategies_tried", float64(a.strategies)/n)
	r.set("sched.pruned_nodes", float64(a.pruned)/n)
	if a.portfolio > 0 {
		r.set("sched.portfolio_win_ratio", float64(a.won)/float64(a.portfolio))
	}
}

// crossCheck compares the replay's per-compile stage time with the
// program's own per-compile stage counters (vliwd's stage_nanos,
// exp.Pipeline.StageNanos) and records the ratio replay/program. Replays
// run uncontended, so a ratio somewhat below 1 is expected under load; far
// outside [1/3, 3] means the replay no longer mirrors the program.
func crossCheck(r *report, a *stageAgg, programNanos map[string]int64, programCompiles int64) {
	var prog int64
	for _, n := range programNanos {
		prog += n
	}
	if a.n == 0 || prog == 0 || programCompiles == 0 {
		r.note("crosscheck: nothing to compare")
		return
	}
	replayPer := float64(a.total().Nanoseconds()) / float64(a.n)
	progPer := float64(prog) / float64(programCompiles)
	ratio := replayPer / progPer
	r.set("trace.stage_crosscheck", ratio)
	verdict := "ok"
	if ratio < 1.0/3 || ratio > 3 {
		verdict = "MISMATCH"
	}
	r.note("crosscheck: replay %.1fus/compile over %d compiles vs program %.1fus/compile over %d: ratio %.3f %s",
		replayPer/1e3, a.n, progPer/1e3, programCompiles, ratio, verdict)
	for st := vliwq.Stage(0); st < vliwq.NumStages; st++ {
		p := float64(programNanos[st.String()]) / float64(programCompiles) / 1e3
		q := float64(a.stages[st].Nanoseconds()) / float64(a.n) / 1e3
		r.note("crosscheck: stage %-8s replay %10.1fus  program %10.1fus", st, q, p)
	}
}

// shape records one predicted-shape check of the traced run that a real
// speed-up could legitimately move, as a note.
func shape(r *report, ok bool, format string, args ...any) {
	verdict := "confirmed"
	if !ok {
		verdict = "NOT CONFIRMED"
	}
	r.note("shape: %s: %s", fmt.Sprintf(format, args...), verdict)
}

// invariant records a shape the workload is defined by; breaking it fails
// the run.
func invariant(r *report, ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
		return
	}
	r.note("shape: %s: confirmed", fmt.Sprintf(format, args...))
}

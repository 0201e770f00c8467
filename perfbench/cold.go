package main

import (
	"time"

	"vliwq"
	"vliwq/internal/ir"
	"vliwq/internal/service"
)

// cold-verify: two closed-loop clients POST /compile over loopback to one
// service.Server with cmd/vliwd's default configuration. Every request of
// a round is a distinct loop (no two share even a structural key), sent as
// clustered:4 + unroll with verification on — the default path, where the
// simulator stage dominates. Each round replays the same seeded set
// against a fresh server, so caches are written, never read.
const (
	coldSetSize = 1024 // distinct loops per round
	coldWarm    = 16   // loops of the set-up's warm-up, outside the set
	coldReplay  = 96   // requests the traced run replays layer by layer, evenly spaced over the set
)

type coldEnv struct {
	*serverEnv
	reqs []service.CompileRequest
}

func coldSetup(seed int64) (*coldEnv, error) {
	set, warmup, err := coldSet(seed, coldSetSize, coldWarm)
	if err != nil {
		return nil, err
	}
	bodies, err := encodeAll(set)
	if err != nil {
		return nil, err
	}
	warm, err := encodeAll(warmup)
	if err != nil {
		return nil, err
	}
	se, err := newServerEnv("/compile", bodies, warm, clients)
	if err != nil {
		return nil, err
	}
	return &coldEnv{serverEnv: se, reqs: set}, nil
}

func runCold(cfg config) (*report, error) {
	env, setup, err := timeSetups(func() (*coldEnv, error) { return coldSetup(cfg.seed) },
		func(e *coldEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	rep := &report{}
	untraced, traced, err := twoPhases(cfg, rep, func(budget time.Duration, tr *tracer) (*serverPhase, error) {
		return env.phase(budget, tr, 1)
	})
	if err != nil {
		return nil, err
	}

	// Off the clock: every answer against the in-process reference
	// compile of the same request.
	refs := expectAll(env.reqs)
	iiSum := 0
	for i, ref := range refs {
		if ref.err != nil {
			rep.fail("set loop %d: reference compile: %v", i, ref.err)
		} else {
			iiSum += ref.res.II
		}
	}
	for _, ph := range []*serverPhase{untraced, traced} {
		if ph == nil {
			continue
		}
		for _, r := range ph.rounds {
			for i, c := range r.calls {
				rep.attempted++
				switch {
				case c.err != nil:
					rep.fail("set loop %d: %v", i, c.err)
				case refs[i].err == nil && c.hash != hash64(refs[i].body):
					rep.fail("set loop %d: response differs from the in-process compile", i)
				}
			}
			if r.stats.Cache.Hits != 0 || r.stats.Structural.Hits != 0 {
				rep.note("warning: a cold round read its cache (%d exact, %d structural hits)",
					r.stats.Cache.Hits, r.stats.Structural.Hits)
			}
		}
	}
	rep.note("cold-verify: %d attempted, %d succeeded, %d failed; error_rate %.6f",
		rep.attempted, rep.attempted-rep.failed, rep.failed, float64(rep.failed)/float64(rep.attempted))

	if !cfg.trace {
		rep.set("setup_s", setup)
		rep.set("ii_sum", float64(iiSum))
		untraced.t.report(rep)
		return rep, nil
	}
	zeroLayers(rep)
	coldLayers(rep, env, traced, refs)
	overhead(rep, untraced.t.p50(), traced.t.p50())
	return rep, nil
}

// coldLayers sets cold-verify's per-layer metrics from the traced phase:
// the server's own counters for the verify share and compile count, and a
// layer-by-layer replay of coldReplay requests spread evenly over the set.
func coldLayers(rep *report, env *coldEnv, ph *serverPhase, refs []expected) {
	tr := rep.spans
	var agg stageAgg
	for _, i := range sample(len(env.reqs), coldReplay) {
		rid := int64(i)
		root := tr.start("replay.request", rid, -1)
		req, err := decodeRequest(tr, rid, root, env.bodies[i])
		if err == nil {
			req = keyRequest(tr, rid, root, req)
			// The structural layer fingerprints every exact-cache miss.
			timed(tr, "request.structural_key", rid, root, func() { _ = req.StructuralKey() })
			var l *ir.Loop
			if l, err = vliwq.ParseLoop(req.Loop); err == nil {
				timed(tr, "ir.fingerprint", rid, root, func() { _ = ir.Fingerprint(l) })
			}
		}
		var ct compileTrace
		if err == nil {
			ct, err = replayCompile(tr, rid, root, req)
		}
		if err == nil && refs[i].res != nil {
			err = renderEncode(tr, rid, root, refs[i].res, req.Effort)
		}
		tr.end(root)
		if err != nil {
			rep.fail("replay of set loop %d: %v", i, err)
			continue
		}
		agg.add(ct)
	}
	agg.report(rep)
	st := tr.stats()
	setRequestLayers(rep, st)
	rep.set("sched.mii_us", meanUS(st, "sched.mii"))

	nanos, total, compiles := ph.stageTotals()
	var hits, misses int64
	for _, r := range ph.rounds {
		hits += r.stats.Cache.Hits
		misses += r.stats.Cache.Misses
	}
	share := float64(nanos["verify"]) / float64(total)
	rep.set("stage.verify_share", share)
	rep.set("service.compiles", float64(compiles))
	rep.set("cache.exact_hit_ratio", float64(hits)/float64(hits+misses))
	crossCheck(rep, &agg, nanos, compiles)
	setRuntimeLayers(rep, ph.counters, ph.t.loops)
	rep.set("trace.spans", float64(tr.len()))
	shape(rep, share >= 0.8, "stage.verify_share %.3f >= 0.8 on cold-verify", share)
}

// setRequestLayers sets the request and service layer metrics that have a
// span of the same name.
func setRequestLayers(rep *report, st map[string]*layerStat) {
	for _, name := range []string{
		"request.normalize", "request.canonical", "request.structural_key",
		"ir.parse", "ir.fingerprint", "ir.align", "service.remap",
		"service.render", "service.decode", "service.encode",
		"gateway.route", "gateway.hop",
	} {
		rep.set(name+"_us", meanUS(st, name))
	}
}

// setRuntimeLayers sets the GC-pause and allocation metrics of a phase.
func setRuntimeLayers(rep *report, c [2]runtimeCounters, loops int) {
	rep.set("runtime.gc_pause_ms", float64(c[1].pauseNs-c[0].pauseNs)/1e6)
	rep.set("runtime.allocs_per_loop", float64(c[1].mallocs-c[0].mallocs)/float64(max(loops, 1)))
}

// overhead sets the tracing overhead: the traced phase's median latency
// minus the untraced one's, absolute and as a share.
func overhead(rep *report, untraced, traced float64) {
	rep.set("trace.overhead_ms", traced-untraced)
	rep.set("trace.overhead_share", (traced-untraced)/untraced)
	rep.note("tracing overhead: p50 %.4fms untraced, %.4fms traced", untraced, traced)
}

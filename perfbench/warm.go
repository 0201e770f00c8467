package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"vliwq"
	"vliwq/internal/gateway"
	"vliwq/internal/ir"
	"vliwq/internal/pool"
	"vliwq/internal/service"
)

// warm-gateway: two closed-loop clients POST /compile to a gateway.Gateway
// over two in-process backends, all with cmd/vliwgate and cmd/vliwd
// defaults. Set-up pre-warms the class leaders; a timed round sends equal
// shares of the three read paths a compiled class can be served by: exact
// repeats of the leaders (exact cache hits), renamed spellings (structural
// hits, rename-only remap) and statement-permuted spellings (structural
// hits through ir.AlignLike). Each renamed and permuted spelling is fresh —
// sent once per round — so it really takes the structural path rather
// than hitting the exact entry an earlier sighting inserted. No pipeline
// stage runs: the cost is routing, the exact and structural cache read
// path, alignment, remap, render, JSON and the hop.
//
// The equal shares are a chosen weighting, one per read path, not a
// measured production mix. 256 classes keep each fresh fleet's pre-warm
// (one verified compile per class) under half a second; 8 sightings per
// class and path make a round of 6144 requests, under two seconds, so a
// 15-second run spans about nine rounds.
const (
	warmClasses   = 256 // class leaders pre-warmed per fleet
	warmSpellings = 8   // per class: exact repeats, renamed and permuted spellings per round
	warmReplay    = 512 // requests the traced run replays layer by layer
	warmBackends  = 2
)

// fleet is one gateway over warmBackends backends, all on loopback.
type fleet struct {
	srvs       []*service.Server
	backends   []*loopback
	gw         *gateway.Gateway
	front      *loopback
	stopProber func()
	client     *http.Client
}

// startFleet builds the fleet with the cmd defaults: vliwd's service
// configuration, and vliwgate's gateway configuration with its 1s
// background breaker prober.
func startFleet() (*fleet, error) {
	f := &fleet{client: newClient()}
	var urls []string
	for i := 0; i < warmBackends; i++ {
		srv := service.New(vliwdConfig())
		lb, err := serve(srv.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		f.backends = append(f.backends, lb)
		urls = append(urls, lb.url)
	}
	gw, err := gateway.New(gateway.Config{Backends: urls, Timeout: 60 * time.Second})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	f.stopProber = gw.StartProber(time.Second)
	if f.front, err = serve(gw.Handler()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	f.client.CloseIdleConnections()
	if f.front != nil {
		f.front.close()
	}
	if f.stopProber != nil {
		f.stopProber()
	}
	for _, lb := range f.backends {
		lb.close()
	}
}

// backendStats sums the backends' counters.
func (f *fleet) backendStats() service.StatsResponse {
	var sum service.StatsResponse
	for _, s := range f.srvs {
		st := s.Stats()
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Evictions += st.Cache.Evictions
		sum.Structural.Hits += st.Structural.Hits
		sum.Structural.Reordered += st.Structural.Reordered
		sum.Structural.Renumbered += st.Structural.Renumbered
		sum.Sched.Compiles += st.Sched.Compiles
	}
	return sum
}

// gatewayCounters are the gateway's coalesced and failover totals.
func (f *fleet) gatewayCounters() (coalesced, failovers int64) {
	st := f.gw.Stats(context.Background())
	for _, b := range st.Backends {
		failovers += b.Failovers
	}
	return st.Coalesced, failovers
}

type warmEnv struct {
	pool    []spelling
	leaders []int // pool indices of the class leaders
	seq     []int // the round's request sequence, as pool indices
	fleet   *fleet
}

func warmSetup(seed int64) (*warmEnv, error) {
	pool, err := warmPool(seed, warmClasses, warmSpellings)
	if err != nil {
		return nil, err
	}
	env := &warmEnv{pool: pool, seq: warmSequence(seed, pool, warmSpellings)}
	for i, s := range pool {
		if s.kind == spellExact {
			env.leaders = append(env.leaders, i)
		}
	}
	if err := env.newFleet(); err != nil {
		return nil, err
	}
	return env, nil
}

// warmSequence is one round's requests as pool indices, in a seeded
// shuffled order: each class leader `repeats` times, and every renamed
// and permuted spelling once.
func warmSequence(seed int64, pool []spelling, repeats int) []int {
	var seq []int
	for i, s := range pool {
		n := 1
		if s.kind == spellExact {
			n = repeats
		}
		for ; n > 0; n-- {
			seq = append(seq, i)
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, tagWarm) + 1))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// newFleet starts a fleet and pre-warms every class leader through the
// gateway, on `clients` clients.
func (env *warmEnv) newFleet() error {
	f, err := startFleet()
	if err != nil {
		return err
	}
	p := closedLoop(clients, len(env.leaders), time.Now().Add(time.Hour), func(i int) callResult {
		_, err := postOK(f.client, f.front.url+"/compile", env.pool[env.leaders[i]].body)
		return callResult{err: err}
	})
	for _, c := range p.calls {
		if c.err != nil || !c.done {
			f.close()
			return fmt.Errorf("pre-warm: %v", c.err)
		}
	}
	env.fleet = f
	return nil
}

// warmRoundOut is one timed round's client records and counter deltas.
type warmRoundOut struct {
	calls              []callResult
	before, after      service.StatsResponse
	coalesced, failovs int64
}

type warmPhase struct {
	t        timing
	rounds   []warmRoundOut
	counters [2]runtimeCounters
}

// phase runs timed rounds of the request sequence, each against a freshly
// pre-warmed fleet (the re-warm is off the clock), so every round starts
// from identical caches and sends an identical mix, until the budget is
// spent. The last fleet stays up for the traced replay.
func (env *warmEnv) phase(budget time.Duration, tr *tracer) (*warmPhase, error) {
	ph := &warmPhase{}
	ph.counters[0] = readRuntime()
	for budget > 0 {
		if env.fleet == nil {
			if err := env.newFleet(); err != nil {
				return nil, err
			}
		}
		f := env.fleet
		out := warmRoundOut{before: f.backendStats()}
		c0, f0 := f.gatewayCounters()
		url := f.front.url + "/compile"
		runtime.GC()
		hw := watchHeap()
		p := closedLoop(clients, len(env.seq), time.Now().Add(budget), func(i int) callResult {
			sp := env.pool[env.seq[i]]
			send := func(parent int32) callResult {
				r := postTraced(tr, int64(i), parent, f.client, url, sp.body)
				r.body = nil // checked by its hash
				return r
			}
			if tr == nil {
				return send(-1)
			}
			return tracedCall(tr, int64(i), send)
		})
		ph.t.add(p, 1, hw.stopMB())
		out.calls = p.calls[:p.n]
		out.after = f.backendStats()
		c1, f1 := f.gatewayCounters()
		out.coalesced, out.failovs = c1-c0, f1-f0
		ph.rounds = append(ph.rounds, out)
		budget -= p.elapsed
		if p.n < len(env.seq) {
			break // the deadline cut this round
		}
		if budget > 0 {
			f.close()
			env.fleet = nil
		}
	}
	ph.counters[1] = readRuntime()
	return ph, nil
}

func runWarm(cfg config) (*report, error) {
	env, setup, err := timeSetups(func() (*warmEnv, error) { return warmSetup(cfg.seed) },
		func(e *warmEnv) { e.fleet.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if env.fleet != nil {
			env.fleet.close()
		}
	}()
	rep := &report{}
	untraced, traced, err := twoPhases(cfg, rep, func(budget time.Duration, tr *tracer) (*warmPhase, error) {
		if tr != nil {
			// The untraced phase's last fleet is warm; start from a fresh one.
			env.fleet.close()
			env.fleet = nil
		}
		return env.phase(budget, tr)
	})
	if err != nil {
		return nil, err
	}
	phases := []*warmPhase{untraced}
	if traced != nil {
		phases = append(phases, traced)
	}

	refs, iiSum := env.check(rep, phases)
	if !cfg.trace {
		rep.set("setup_s", setup)
		rep.set("ii_sum", float64(iiSum))
		untraced.t.report(rep)
		return rep, nil
	}
	zeroLayers(rep)
	env.layers(rep, traced, refs)
	overhead(rep, untraced.t.p50(), traced.t.p50())
	return rep, nil
}

// check verifies every response off the clock, by its hash. Exact and
// renamed spellings must be byte-equal to the in-process reference
// compile of the same spelling. A permuted spelling is served from its
// class leader's schedule, so it must be byte-equal to expectPermuted's
// answer, which carries the leader's II, MII and queue counts. The timed
// rounds must run no pipeline compile. It returns the references by pool
// index and the leaders' II sum.
func (env *warmEnv) check(rep *report, phases []*warmPhase) (map[int]expected, int) {
	sent := map[int]bool{}
	for _, i := range env.leaders {
		sent[i] = true
	}
	for _, ph := range phases {
		for _, r := range ph.rounds {
			for j := range r.calls {
				sent[env.seq[j]] = true
			}
		}
	}
	// Leaders and renamed spellings first: a permuted spelling's answer
	// derives from its leader's reference.
	var idxs, perms []int
	var reqs []service.CompileRequest
	for i, sp := range env.pool {
		switch {
		case !sent[i]:
		case sp.kind == spellPermuted:
			perms = append(perms, i)
		default:
			idxs = append(idxs, i)
			reqs = append(reqs, sp.req)
		}
	}
	refs := map[int]expected{}
	for k, e := range expectAll(reqs) {
		refs[idxs[k]] = e
		if e.err != nil {
			rep.fail("spelling %d: reference compile: %v", idxs[k], e.err)
		}
	}
	permRefs := make([]expected, len(perms))
	pool.Run(context.Background(), len(perms), clients, func(k int) {
		sp := env.pool[perms[k]]
		permRefs[k] = expectPermuted(refs[sp.class], sp.req)
	}, nil)
	for k, e := range permRefs {
		refs[perms[k]] = e
		if e.err != nil {
			rep.fail("permuted spelling %d: %v", perms[k], e.err)
		}
	}
	iiSum := 0
	for _, i := range env.leaders {
		if refs[i].res != nil {
			iiSum += refs[i].res.II
		}
	}

	var hits, misses, structHits, reordered, compiles int64
	for _, ph := range phases {
		for _, r := range ph.rounds {
			for j, c := range r.calls {
				idx := env.seq[j]
				rep.attempted++
				if c.err != nil {
					rep.fail("request %d (spelling %d): %v", j, idx, c.err)
				} else if ref := refs[idx]; ref.err == nil && c.hash != hash64(ref.body) {
					rep.fail("request %d (spelling %d): response differs from the expected answer", j, idx)
				}
			}
			hits += r.after.Cache.Hits - r.before.Cache.Hits
			misses += r.after.Cache.Misses - r.before.Cache.Misses
			structHits += r.after.Structural.Hits - r.before.Structural.Hits
			reordered += r.after.Structural.Reordered - r.before.Structural.Reordered
			compiles += r.after.Sched.Compiles - r.before.Sched.Compiles
		}
	}
	invariant(rep, compiles == 0, "service.compiles %d == 0 during the timed rounds of warm-gateway", compiles)
	rep.note("warm-gateway: %d attempted, %d succeeded, %d failed; error_rate %.6f; %d pipeline compiles in timed rounds",
		rep.attempted, rep.attempted-rep.failed, rep.failed, float64(rep.failed)/float64(rep.attempted), compiles)
	total := float64(max(hits+misses, 1))
	rep.note("warm-gateway: the backends answered %.3f from the exact cache and %.3f structurally (%.3f renamed, %.3f reordered)",
		float64(hits)/total, float64(structHits)/total, float64(structHits-reordered)/total, float64(reordered)/total)
	return refs, iiSum
}

// layers sets warm-gateway's per-layer metrics: the backends' and the
// gateway's counter deltas over the traced rounds, and a replay of the
// first warmReplay requests of the sequence through the layers each one
// crosses — gateway decode, route and coalescing key; the backend's
// decode, keys, and for a spelling's first sighting the structural path
// (parse, structural key, alignment, remap, render); the JSON encode every
// answer pays; and the hop, as a direct call to the owning backend.
func (env *warmEnv) layers(rep *report, ph *warmPhase, refs map[int]expected) {
	tr := rep.spans
	f := env.fleet
	seen := make([]bool, len(env.pool))
	for j := 0; j < min(warmReplay, len(env.seq)); j++ {
		idx := env.seq[j]
		sp := env.pool[idx]
		rid := int64(j)
		root := tr.start("replay.request", rid, -1)
		err := env.replayOne(tr, rid, root, sp, !seen[idx], refs)
		tr.end(root)
		seen[idx] = true
		if err != nil {
			rep.fail("replay of request %d: %v", j, err)
		}
	}
	st := tr.stats()
	setRequestLayers(rep, st)
	if _, ok := st["gateway.hop"]; !ok || f == nil {
		rep.fail("replay: no hop measured")
	}

	var hits, misses, structHits, reordered, renumbered, evictions, compiles, coalesced, failovers int64
	for _, r := range ph.rounds {
		hits += r.after.Cache.Hits - r.before.Cache.Hits
		misses += r.after.Cache.Misses - r.before.Cache.Misses
		structHits += r.after.Structural.Hits - r.before.Structural.Hits
		reordered += r.after.Structural.Reordered - r.before.Structural.Reordered
		renumbered += r.after.Structural.Renumbered - r.before.Structural.Renumbered
		evictions += r.after.Cache.Evictions - r.before.Cache.Evictions
		compiles += r.after.Sched.Compiles - r.before.Sched.Compiles
		coalesced += r.coalesced
		failovers += r.failovs
	}
	rounds := float64(len(ph.rounds))
	rep.set("cache.exact_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	rep.set("cache.structural_hit_ratio", float64(structHits)/float64(max(misses, 1)))
	rep.set("cache.reordered", float64(reordered)/rounds)
	rep.set("cache.renumbered", float64(renumbered)/rounds)
	rep.set("cache.evictions", float64(evictions))
	rep.set("service.compiles", float64(compiles))
	rep.set("gateway.coalesced", float64(coalesced)/rounds)
	rep.set("gateway.failovers", float64(failovers))
	setRuntimeLayers(rep, ph.counters, ph.t.loops)
	rep.set("trace.spans", float64(tr.len()))
	rep.note("warm-gateway: counters are per timed round (%d rounds); compiles, evictions and failovers are totals", len(ph.rounds))
}

// replayOne replays one request of the sequence; first marks the
// spelling's first sighting in the round, the only time the backend takes
// the structural path for it.
func (env *warmEnv) replayOne(tr *tracer, rid int64, root int32, sp spelling, first bool, refs map[int]expected) error {
	f := env.fleet
	// Gateway: decode, route by structural key, coalesce by canonical key.
	req, err := decodeRequest(tr, rid, root, sp.body)
	if err != nil {
		return err
	}
	var owner int
	timed(tr, "gateway.route", rid, root, func() { owner = f.gw.Route(&req) })
	timed(tr, "request.canonical", rid, root, func() { _ = req.Canonical() })
	var hopErr error
	timed(tr, "gateway.hop", rid, root, func() {
		_, hopErr = postOK(f.client, f.backends[owner].url+"/compile", sp.body)
	})
	if hopErr != nil {
		return hopErr
	}

	// Backend: decode and keys on every request.
	if req, err = decodeRequest(tr, rid, root, sp.body); err != nil {
		return err
	}
	req = keyRequest(tr, rid, root, req)
	lead := refs[sp.class]
	if lead.res == nil {
		return fmt.Errorf("no reference for class %d", sp.class)
	}
	res := lead.res
	if first && sp.kind != spellExact {
		var l *vliwq.Loop
		timed(tr, "ir.parse", rid, root, func() { l, err = vliwq.ParseLoop(req.Loop) })
		if err != nil {
			return err
		}
		timed(tr, "request.structural_key", rid, root, func() { _ = req.StructuralKey() })
		timed(tr, "ir.fingerprint", rid, root, func() { _ = ir.Fingerprint(l) })
		if sp.kind == spellPermuted {
			ok := false
			timed(tr, "ir.align", rid, root, func() { l, ok = ir.AlignLike(l, lead.res.Input) })
			if !ok {
				return fmt.Errorf("permuted spelling does not align onto its leader")
			}
		}
		timed(tr, "service.remap", rid, root, func() { res, err = vliwq.RemapResult(lead.res, l) })
		if err != nil {
			return err
		}
		var resp *service.CompileResponse
		timed(tr, "service.render", rid, root, func() { resp = render(res, req.Effort) })
		timed(tr, "service.encode", rid, root, func() { _, err = encodeJSON(resp) })
		return err
	}
	// An exact hit re-encodes the cached response.
	resp := render(res, req.Effort)
	timed(tr, "service.encode", rid, root, func() { _, err = encodeJSON(resp) })
	return err
}

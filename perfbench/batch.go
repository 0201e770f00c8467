package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"vliwq/internal/sched"
	"vliwq/internal/service"
)

// batch-tiered: one client sends POST /batch calls to a service.Server with
// cmd/vliwd's defaults, so each call fans out over the server's
// GOMAXPROCS workers (internal/pool). Every call carries batchSize
// distinct loops of the stressed corpus shape, tiered like
// internal/program tiers regions (optimal for program.Hard loops,
// exhaustive otherwise), verification on: portfolio racing and
// branch-and-bound compete with the batch fan-out for the cores. Each
// round replays the same seeded set of calls against a fresh server.
const (
	batchSize   = 16
	batchCalls  = 32 // calls per round
	batchReplay = 64 // loops the traced run replays layer by layer, evenly spaced over the set
)

type batchEnv struct {
	*serverEnv
	reqs     []service.CompileRequest
	digested [][]batchItem // per round, in set order, until a phase takes them
}

func batchSetup(seed int64) (*batchEnv, error) {
	set, warmup, err := batchSet(seed, batchCalls*batchSize, batchSize)
	if err != nil {
		return nil, err
	}
	batches := func(reqs []service.CompileRequest) ([][]byte, error) {
		var out [][]byte
		for i := 0; i+batchSize <= len(reqs); i += batchSize {
			body, err := encodeJSON(service.BatchRequest{Requests: reqs[i : i+batchSize]})
			if err != nil {
				return nil, err
			}
			out = append(out, body)
		}
		return out, nil
	}
	bodies, err := batches(set)
	if err != nil {
		return nil, err
	}
	warm, err := batches(warmup)
	if err != nil {
		return nil, err
	}
	se, err := newServerEnv("/batch", bodies, warm, 1)
	if err != nil {
		return nil, err
	}
	env := &batchEnv{serverEnv: se, reqs: set}
	se.digest = func(calls []callResult) {
		var items []batchItem
		for i, c := range calls {
			items = append(items, env.split(i, c)...)
		}
		env.digested = append(env.digested, items)
	}
	return env, nil
}

// batchItem is one loop's answer inside a /batch response.
type batchItem struct {
	hash    uint64 // of the response, framed like a /compile body
	err     string
	optimal bool // requested the optimal tier
	proved  bool // bound.optimal
}

// batchPhase is a timed phase with its rounds' per-loop answers.
type batchPhase struct {
	*serverPhase
	items [][]batchItem
}

// split decodes one /batch answer into its per-loop answers; a call that
// failed as a whole fails every loop it carried.
func (env *batchEnv) split(call int, c callResult) []batchItem {
	items := make([]batchItem, batchSize)
	for k := range items {
		items[k].optimal = env.reqs[call*batchSize+k].Effort == "optimal"
		items[k].err = "no answer"
	}
	if c.err != nil {
		for k := range items {
			items[k].err = c.err.Error()
		}
		return items
	}
	var resp struct {
		Results []struct {
			Response json.RawMessage `json:"response"`
			Error    string          `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(c.body, &resp); err != nil || len(resp.Results) != batchSize {
		for k := range items {
			items[k].err = fmt.Sprintf("bad /batch answer (%d results): %v", len(resp.Results), err)
		}
		return items
	}
	for k, r := range resp.Results {
		if r.Error != "" {
			items[k].err = r.Error
			continue
		}
		var bound struct {
			Bound *service.BoundInfo `json:"bound"`
		}
		if err := json.Unmarshal(r.Response, &bound); err != nil {
			items[k].err = err.Error()
			continue
		}
		items[k].err = ""
		items[k].hash = hash64(append(r.Response, '\n'))
		items[k].proved = bound.Bound != nil && bound.Bound.Optimal
	}
	return items
}

func runBatch(cfg config) (*report, error) {
	env, setup, err := timeSetups(func() (*batchEnv, error) { return batchSetup(cfg.seed) },
		func(e *batchEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	rep := &report{}
	untraced, traced, err := twoPhases(cfg, rep, func(budget time.Duration, tr *tracer) (*batchPhase, error) {
		ph, err := env.phase(budget, tr, batchSize)
		if err != nil {
			return nil, err
		}
		items := env.digested
		env.digested = nil
		return &batchPhase{serverPhase: ph, items: items}, nil
	})
	if err != nil {
		return nil, err
	}

	// Off the clock: every answered loop against the in-process reference
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
	for _, ph := range []*batchPhase{untraced, traced} {
		if ph == nil {
			continue
		}
		for _, round := range ph.items {
			for i, it := range round {
				rep.attempted++
				switch {
				case it.err != "":
					rep.fail("set loop %d: %s", i, it.err)
				case refs[i].err == nil && it.hash != hash64(refs[i].body):
					rep.fail("set loop %d: response differs from the in-process compile", i)
				}
			}
		}
	}
	rep.note("batch-tiered: %d attempted, %d succeeded, %d failed; error_rate %.6f",
		rep.attempted, rep.attempted-rep.failed, rep.failed, float64(rep.failed)/float64(rep.attempted))

	proved := provedShare(untraced.items[0])
	if !cfg.trace {
		rep.note("proved_share %.4f (optimal-tier loops whose II was proved optimal)", proved)
		rep.set("setup_s", setup)
		rep.set("ii_sum", float64(iiSum))
		untraced.t.report(rep)
		return rep, nil
	}
	zeroLayers(rep)
	env.layers(rep, traced, proved)
	overhead(rep, untraced.t.p50(), traced.t.p50())
	return rep, nil
}

// provedShare is the share of optimal-tier loops answered with a proof.
func provedShare(items []batchItem) float64 {
	var opt, proved int
	for _, it := range items {
		if it.optimal && it.err == "" {
			opt++
			if it.proved {
				proved++
			}
		}
	}
	return float64(proved) / float64(max(opt, 1))
}

// layers sets batch-tiered's per-layer metrics: the server's stage,
// branch-and-bound and portfolio counters and the fan-out efficiency over
// the traced phase, and a replay of batchReplay loops spread evenly over
// the set for the other scheduler counters.
func (env *batchEnv) layers(rep *report, ph *batchPhase, proved float64) {
	tr := rep.spans
	var agg stageAgg
	for _, i := range sample(len(env.reqs), batchReplay) {
		rid := int64(i)
		root := tr.start("replay.request", rid, -1)
		ct, err := replayCompile(tr, rid, root, env.reqs[i])
		tr.end(root)
		if err != nil {
			rep.fail("replay of set loop %d: %v", i, err)
			continue
		}
		agg.add(ct)
	}
	agg.report(rep)
	st := tr.stats()
	rep.set("sched.mii_us", meanUS(st, "sched.mii"))
	rep.set("ir.parse_us", meanUS(st, "ir.parse"))

	nanos, total, compiles := ph.stageTotals()
	var callNs int64
	for _, r := range ph.rounds {
		for _, c := range r.calls {
			callNs += c.lat.Nanoseconds()
		}
	}
	// Branch-and-bound and portfolio outcomes from the server's own
	// counters, over every compile of the phase: the loops whose search
	// runs long are too rare for the replayed sample to catch.
	var optimal, pruned, wins int64
	for _, r := range ph.rounds {
		o := r.stats.Optimal
		optimal += o.Proved + o.Incumbent
		pruned += o.PrunedNodes
		for strategy, n := range r.stats.Sched.StrategyWins {
			if strategy != sched.StrategyBaseline.String() {
				wins += n
			}
		}
	}
	rep.set("sched.pruned_nodes", float64(pruned)/float64(max(optimal, 1)))
	rep.set("sched.portfolio_win_ratio", float64(wins)/float64(max(compiles, 1)))
	workers := runtime.GOMAXPROCS(0)
	rep.set("stage.verify_share", float64(nanos["verify"])/float64(max(total, 1)))
	rep.set("service.compiles", float64(compiles))
	rep.set("batch.parallel_efficiency", float64(total)/(float64(callNs)*float64(workers)))
	rep.set("batch.proved_share", proved)
	crossCheck(rep, &agg, nanos, compiles)
	setRuntimeLayers(rep, ph.counters, ph.t.loops)
	rep.set("trace.spans", float64(tr.len()))
}

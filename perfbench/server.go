package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"vliwq/internal/service"
)

// vliwdConfig is cmd/vliwd's default service configuration.
func vliwdConfig() service.Config {
	return service.Config{CacheEntries: 65536}
}

// loopServer is one vliwd backend on loopback with its client.
type loopServer struct {
	srv    *service.Server
	lb     *loopback
	client *http.Client
}

func startServer() (*loopServer, error) {
	srv := service.New(vliwdConfig())
	lb, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &loopServer{srv: srv, lb: lb, client: newClient()}, nil
}

func (s *loopServer) close() {
	s.client.CloseIdleConnections()
	s.lb.close()
}

// serverEnv is a timed request set replayed against fresh servers:
// cold-verify's /compile bodies or batch-tiered's /batch bodies.
type serverEnv struct {
	path    string // endpoint the bodies go to
	bodies  [][]byte
	workers int // closed-loop clients
	server  *loopServer
	// digest, when set, consumes a round's response bodies between rounds,
	// off the clock; without it bodies are dropped as they arrive and only
	// their hashes are kept.
	digest func(calls []callResult)
}

// newServerEnv starts the first server and sends the warm-up bodies.
func newServerEnv(path string, bodies, warmup [][]byte, workers int) (*serverEnv, error) {
	env := &serverEnv{path: path, bodies: bodies, workers: workers}
	var err error
	if env.server, err = startServer(); err != nil {
		return nil, err
	}
	for _, body := range warmup {
		if _, err := postOK(env.server.client, env.server.lb.url+path, body); err != nil {
			env.server.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

func (env *serverEnv) close() {
	if env.server != nil {
		env.server.close()
		env.server = nil
	}
}

// serverRound is one timed round: the calls it completed, in set order,
// and the server's counters at its end.
type serverRound struct {
	calls []callResult
	stats service.StatsResponse
}

type serverPhase struct {
	t        timing
	rounds   []serverRound
	counters [2]runtimeCounters
}

// phase replays the set in rounds, each against a fresh server so every
// round starts from the same empty caches, until the budget is spent; a
// round the deadline cuts ends the phase. loopsPerCall scales throughput.
func (env *serverEnv) phase(budget time.Duration, tr *tracer, loopsPerCall int) (*serverPhase, error) {
	ph := &serverPhase{}
	runtime.GC()
	ph.counters[0] = readRuntime()
	for budget > 0 {
		if env.server == nil {
			var err error
			if env.server, err = startServer(); err != nil {
				return nil, err
			}
		}
		s := env.server
		url := s.lb.url + env.path
		hw := watchHeap()
		p := closedLoop(env.workers, len(env.bodies), time.Now().Add(budget), func(i int) callResult {
			var r callResult
			if tr == nil {
				data, err := postOK(s.client, url, env.bodies[i])
				r = callResult{hash: hash64(data), body: data, err: err}
			} else {
				rid := int64(len(ph.rounds)*len(env.bodies) + i)
				r = tracedCall(tr, rid, func(parent int32) callResult {
					return postTraced(tr, rid, parent, s.client, url, env.bodies[i])
				})
			}
			if env.digest == nil {
				r.body = nil
			}
			return r
		})
		ph.t.add(p, loopsPerCall, hw.stopMB())
		calls := p.calls[:p.n]
		if env.digest != nil {
			env.digest(calls)
			for i := range calls {
				calls[i].body = nil
			}
		}
		ph.rounds = append(ph.rounds, serverRound{calls: calls, stats: s.srv.Stats()})
		budget -= p.elapsed
		env.close()
		runtime.GC()
		if p.n < len(env.bodies) {
			break // the deadline cut this round
		}
	}
	ph.counters[1] = readRuntime()
	if len(ph.rounds[0].calls) == 0 {
		return nil, errNoCalls
	}
	return ph, nil
}

// stageTotals sums the servers' stage counters and compile counts.
func (ph *serverPhase) stageTotals() (nanos map[string]int64, total, compiles int64) {
	nanos = map[string]int64{}
	for _, r := range ph.rounds {
		for k, v := range r.stats.Sched.StageNanos {
			nanos[k] += v
			total += v
		}
		compiles += r.stats.Sched.Compiles
	}
	return nanos, total, compiles
}

func encodeAll(reqs []service.CompileRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if out[i], err = encodeJSON(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// twoPhases runs the timed phase: untraced for the whole budget, or — for
// the traced run — untraced for half of it and traced for the other half.
func twoPhases[P any](cfg config, rep *report, run func(time.Duration, *tracer) (P, error)) (untraced, traced P, err error) {
	if !cfg.trace {
		untraced, err = run(cfg.seconds, nil)
		return untraced, traced, err
	}
	rep.spans = newTracer()
	if untraced, err = run(cfg.seconds/2, nil); err != nil {
		return untraced, traced, err
	}
	traced, err = run(cfg.seconds/2, rep.spans)
	return untraced, traced, err
}

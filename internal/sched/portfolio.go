// Portfolio scheduling: try several cluster-assignment strategies per
// candidate II and keep the best schedule. This is the scheduler's one
// driver: every effort tier walks this ladder, EffortFast with a portfolio
// of one.
//
// The paper's partitioned IMS commits to one cluster-preference heuristic,
// and its Fig. 6 degradation is exactly the cost of that commitment: when
// the heuristic's first placements settle on mutually distant clusters, the
// budget burns down in eviction cycles and the II inflates. No single
// ordering wins across loop shapes, so the portfolio runs a catalogue of
// orderings (strategy.go) against every candidate II and returns the best
// result under a fully deterministic selection rule:
//
//   - The first candidate II at which any strategy schedules wins (the II
//     ladder is walked from MII upward, so this is the lowest achievable II
//     over the portfolio).
//   - At II > MII every strategy runs and the best schedule is chosen by
//     fewest inserted move operations, then shortest schedule, then lowest
//     strategy index.
//   - At II == MII the scan stops at the first strategy that schedules: the
//     lowest index wins outright and higher indices never run.
//
// The strategies run one after another, in index order, on the caller's
// state arena, over one set of loop facts (facts.go). Parallelism lives one
// level up, across loops: service requests, the /batch pool, the
// experiment sweeps and program regions each schedule many loops at once,
// just as the partitioned scheduler runs one sequential scheduler per
// partition. The schedule and the work counters in Stats are therefore a
// function of the input alone.

package sched

import (
	"fmt"

	"vliwq/internal/ir"
)

// attempt is a successful (strategy, II) try, copied out of the state arena.
type attempt struct {
	strat   Strategy
	time    []int
	cluster []int
	loop    *ir.Loop // input loop, or a clone when moves were inserted
	moves   int      // move operations inserted
	length  int      // single-iteration span, the last tie-break metric
}

// better reports whether a beats b under the II-equal comparison: fewer
// inserted moves, then shorter schedule. Index order breaks ties because
// the caller scans strategies in index order and keeps the incumbent.
func (a attempt) better(b attempt) bool {
	if a.moves != b.moves {
		return a.moves < b.moves
	}
	return a.length < b.length
}

// span returns the single-iteration span of the state's current placement.
func (st *state) span() int {
	n := 0
	for id, op := range st.loop.Ops {
		if end := st.time[id] + op.Kind.Latency(); end > n {
			n = end
		}
	}
	return n
}

// moves returns the number of move operations the current attempt
// inserted.
func (st *state) moves() int {
	return len(st.loop.Ops) - len(st.orig.Ops)
}

// capture copies the arena's placement into a — the next attempt
// reinitialises the arena — reusing the storage of the incumbent old it
// replaces.
func (st *state) capture(a, old attempt) attempt {
	a.loop = st.orig
	if a.moves > 0 {
		a.loop = st.loop.Clone()
	}
	a.time = append(old.time[:0], st.time...)
	a.cluster = append(old.cluster[:0], st.cluster...)
	return a
}

// schedulePortfolio walks the candidate-II ladder trying every strategy at
// each step, then the compact fallback. See the package comment above for
// the selection rule.
func schedulePortfolio(st *state, strats []Strategy, resMII, recMII, maxII int) (*Schedule, error) {
	mii := max(resMII, recMII)
	st.iiBuf = candidateIIs(st.iiBuf, mii, maxII)
	var best attempt
	ii := -1
	for ord, rung := range st.iiBuf {
		for _, strat := range strats {
			// ord+1 seeds the budget multiplier: every strategy sees the
			// budget growth of the rung it runs on.
			if !st.attempt(strat, nil, ord+1, rung) {
				continue
			}
			cand := attempt{strat: strat, moves: st.moves(), length: st.span()}
			if ii >= 0 && !cand.better(best) {
				continue
			}
			best, ii = st.capture(cand, best), rung
			if rung == mii {
				break
			}
		}
		if ii >= 0 {
			break
		}
	}
	if ii < 0 {
		// No strategy scheduled anywhere on the ladder: fall back to the
		// compact cluster-subset search, which cannot fail on a valid loop.
		if ii = st.compactSchedule(strats[0], mii, maxII, len(st.iiBuf)); ii < 0 {
			return nil, fmt.Errorf("%w: %q on %s (MII=%d, maxII=%d)", ErrNoSchedule, st.orig.Name, st.cfg.Name, mii, maxII)
		}
		best = st.capture(attempt{strat: strats[0], moves: st.moves()}, best)
	}
	stats := st.stats
	stats.MovesInserted = best.moves
	if len(strats) > 1 {
		stats.StrategiesTried = len(strats)
	}
	return &Schedule{
		Loop:     best.loop,
		Machine:  st.cfg,
		II:       ii,
		Time:     best.time,
		Cluster:  best.cluster,
		ResMII:   resMII,
		RecMII:   recMII,
		Strategy: best.strat,
		Stats:    stats,
	}, nil
}

package exp

import (
	"fmt"

	"vliwq"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/metrics"
	"vliwq/internal/sched"
)

// ipcSeries computes the four curves of Figs. 8/9 — static and dynamic IPC
// for single-cluster and clustered machines — across the FU axis. Static
// IPC is averaged per loop (kernel issue rate); dynamic IPC is weighted by
// execution time across the corpus, which is what lets a few large loops
// dominate, the effect the paper highlights.
func ipcSeries(opts Options, loops []*ir.Loop, title, id string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"FUs", "static single", "static clustered", "dynamic single", "dynamic clustered"},
	}
	type point struct {
		static float64
		hasDyn bool
		ops    float64
		cycles float64
		ok     bool
	}
	measure := func(cfg machine.Config) (staticMean float64, dynIPC float64) {
		comp := opts.compiler(vliwq.Options{Machine: cfg, Unroll: true})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) point {
			c, err := comp(l)
			if err != nil {
				return point{}
			}
			u := c.Sched.Loop.UnrollFactor()
			iters := l.TripCount() / u
			if iters < 1 {
				iters = 1
			}
			return point{
				static: metrics.IPCStatic(c.Sched),
				ok:     true,
				ops:    float64(metrics.RealOps(c.Sched.Loop) * iters),
				cycles: float64(metrics.Cycles(c.Sched, iters)),
			}
		})
		var m metrics.Mean
		var ops, cycles float64
		for _, p := range results {
			if !p.ok {
				continue
			}
			m.Add(p.static)
			ops += p.ops
			cycles += p.cycles
		}
		if cycles == 0 {
			return 0, 0
		}
		return m.Value(), ops / cycles
	}

	// Clustered machines exist at multiples of 3 FUs (>= 2 clusters).
	clusteredAt := map[int]machine.Config{}
	for nc := 2; nc <= 6; nc++ {
		clusteredAt[3*nc] = machine.Clustered(nc)
	}
	for nfu := 4; nfu <= 18; nfu++ {
		sStat, sDyn := measure(machine.SingleCluster(nfu))
		row := []string{fmt.Sprintf("%d", nfu), fmt.Sprintf("%.2f", sStat), "", fmt.Sprintf("%.2f", sDyn), ""}
		if cfg, ok := clusteredAt[nfu]; ok {
			cStat, cDyn := measure(cfg)
			row[2] = fmt.Sprintf("%.2f", cStat)
			row[4] = fmt.Sprintf("%.2f", cDyn)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8 reproduces "Figure 8. IPC — All Loops".
func Fig8(opts Options) *Table {
	t := ipcSeries(opts, opts.loops(),
		"Operations issued per cycle, all loops", "fig8")
	t.Notes = append(t.Notes,
		"paper: static > dynamic (prologue/epilogue overhead); many loops are recurrence-bound and cannot use extra FUs",
		"clustered columns exist at 6/9/12/15/18 FUs (2..6 clusters)")
	return t
}

// Fig9 reproduces "Figure 9. IPC — Resource-Constrained Loops": the same
// series restricted to loops whose II is limited by the functional units
// even on the largest machine (RecMII <= ResMII at 18 FUs).
func Fig9(opts Options) *Table {
	big := machine.SingleCluster(18)
	var filtered []*ir.Loop
	for _, l := range opts.loops() {
		res, err := sched.ResMII(l, big)
		if err != nil {
			continue
		}
		if sched.RecMII(l) <= res {
			filtered = append(filtered, l)
		}
	}
	t := ipcSeries(opts, filtered,
		fmt.Sprintf("Operations issued per cycle, resource-constrained loops (%d of %d)",
			len(filtered), len(opts.loops())), "fig9")
	t.Notes = append(t.Notes,
		"paper: issue rates rise much faster with machine width than for the full corpus; the single-vs-clustered gap at 15/18 FUs is the partitioning cost")
	return t
}

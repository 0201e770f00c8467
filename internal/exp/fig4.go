package exp

import (
	"fmt"

	"vliwq"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
	"vliwq/internal/metrics"
)

// Fig4 reproduces "Figure 4. Initiation Interval Speedup": the fraction of
// loops achieving II_speedup > 1 when loop unrolling is applied, per
// machine, using no extra functional units (Equation 1, normalized per
// original iteration).
func Fig4(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "fig4",
		Title:  "II speedup from loop unrolling (no extra FUs)",
		Header: []string{"machine", "speedup > 1", "mean speedup (improved)", "mean unroll factor", "unrolled loops"},
	}
	for _, nfu := range machine.PaperSingleClusterFUs {
		cfg := machine.SingleCluster(nfu)
		type res struct {
			ok       bool
			speedup  float64
			factor   int
			unrolled bool
		}
		compBase := opts.compiler(vliwq.Options{Machine: cfg})
		compUnrl := opts.compiler(vliwq.Options{Machine: cfg, Unroll: true})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			base, errBase := compBase(l)
			un, errUnrl := compUnrl(l)
			if errBase != nil || errUnrl != nil {
				return res{}
			}
			return res{
				ok:       true,
				speedup:  metrics.IISpeedup(base.Sched.II, un.Unrolled, un.Sched.II),
				factor:   un.Unrolled,
				unrolled: un.Unrolled > 1,
			}
		})
		var ok, improved, unrolled, factors int
		var gain metrics.Mean
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			factors += r.factor
			if r.unrolled {
				unrolled++
			}
			if r.speedup > 1 {
				improved++
				gain.Add(r.speedup)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d FUs", nfu),
			pct(improved, ok),
			fmt.Sprintf("%.2fx", gain.Value()),
			fmt.Sprintf("%.2f", float64(factors)/float64(ok)),
			pct(unrolled, ok),
		})
	}
	t.Notes = append(t.Notes,
		"paper: a considerable fraction of loops achieves II_speedup > 1 with no extra FUs",
		"recurrence-bound loops cannot improve: their latency/distance ratio is unroll-invariant")
	return t
}

// UnrollQueues reproduces the §3 text result: unrolling moderately
// increases queue demand, but 32 queues still cover over 90% of loops.
func UnrollQueues(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "unrollqueues",
		Title:  "Queue demand after unrolling (cumulative % of loops)",
		Header: []string{"machine", "<=4", "<=8", "<=16", "<=32", "mean queues (unrolled vs not)"},
	}
	for _, nfu := range machine.PaperSingleClusterFUs {
		cfg := machine.SingleCluster(nfu)
		type res struct {
			ok           bool
			qBase, qUnrl int
		}
		compBase := opts.compiler(vliwq.Options{Machine: cfg})
		compUnrl := opts.compiler(vliwq.Options{Machine: cfg, Unroll: true})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			base, errBase := compBase(l)
			un, errUnrl := compUnrl(l)
			if errBase != nil || errUnrl != nil {
				return res{}
			}
			return res{ok: true, qBase: base.Alloc.MaxPrivateQueues(), qUnrl: un.Alloc.MaxPrivateQueues()}
		})
		counts := make([]int, len(queueThresholds))
		var ok, sumBase, sumUnrl int
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			sumBase += r.qBase
			sumUnrl += r.qUnrl
			for i, q := range queueThresholds {
				if r.qUnrl <= q {
					counts[i]++
				}
			}
		}
		row := []string{fmt.Sprintf("%d FUs", nfu)}
		for _, c := range counts {
			row = append(row, pct(c, ok))
		}
		row = append(row, fmt.Sprintf("%.1f vs %.1f",
			float64(sumUnrl)/float64(ok), float64(sumBase)/float64(ok)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: 32 queues still schedule over 90% of loops after unrolling")
	return t
}

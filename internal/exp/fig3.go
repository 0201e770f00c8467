package exp

import (
	"fmt"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// queueThresholds are Fig. 3's x-axis: private QRF sizes.
var queueThresholds = []int{4, 8, 16, 32}

// Fig3 reproduces "Figure 3. Number of Queues": the cumulative fraction of
// loops whose queue allocation fits within 4/8/16/32 queues, for machines
// of 4, 6 and 12 FUs, with copy operations inserted — and, for the copy-op
// comparison the section discusses, without them (simultaneous writes
// allowed, Fig. 1c style).
func Fig3(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "fig3",
		Title:  "Number of queues required (cumulative % of loops)",
		Header: []string{"machine", "copy ops", "<=4", "<=8", "<=16", "<=32", "unschedulable"},
	}
	for _, nfu := range machine.PaperSingleClusterFUs {
		cfg := machine.SingleCluster(nfu)
		for _, withCopies := range []bool{false, true} {
			withCopies := withCopies
			type res struct {
				queues int
				failed bool
			}
			vo := vliwq.Options{Machine: cfg}
			if !withCopies {
				vo.CopyShape = copyins.None
			}
			comp := opts.compiler(vo)
			results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
				c, err := comp(l)
				if err != nil {
					return res{failed: true}
				}
				return res{queues: c.Alloc.MaxPrivateQueues()}
			})
			counts := make([]int, len(queueThresholds))
			failed := 0
			for _, r := range results {
				if r.failed {
					failed++
					continue
				}
				for i, q := range queueThresholds {
					if r.queues <= q {
						counts[i]++
					}
				}
			}
			label := "without"
			if withCopies {
				label = "with"
			}
			row := []string{fmt.Sprintf("%d FUs", nfu), label}
			for _, c := range counts {
				row = append(row, pct(c, len(loops)))
			}
			row = append(row, fmt.Sprintf("%d", failed))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper: 32 queues schedule most loops on every machine; copy ops do not significantly increase queue demand",
		"'without' counts queues for multi-consumer values stored into one queue per consumer (simultaneous writes)")
	return t
}

// CopyCost reproduces the §2 text results: the fraction of loops whose II
// and stage count survive copy insertion unchanged.
func CopyCost(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "copycost",
		Title:  "Cost of copy operations (vs. schedule without copies)",
		Header: []string{"machine", "same II", "same stage count", "mean II growth", "mean copies/loop"},
	}
	for _, nfu := range machine.PaperSingleClusterFUs {
		cfg := machine.SingleCluster(nfu)
		type res struct {
			ok             bool
			sameII, sameSC bool
			iiGrowth       float64
			copies         int
		}
		compBase := opts.compiler(vliwq.Options{Machine: cfg, CopyShape: copyins.None})
		compWith := opts.compiler(vliwq.Options{Machine: cfg})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			base, errBase := compBase(l)
			with, errWith := compWith(l)
			if errBase != nil || errWith != nil {
				return res{}
			}
			nCopies := 0
			for _, op := range with.Sched.Loop.Ops {
				if op.Kind == ir.KCopy {
					nCopies++
				}
			}
			return res{
				ok:       true,
				sameII:   with.Sched.II == base.Sched.II,
				sameSC:   with.Sched.StageCount() == base.Sched.StageCount(),
				iiGrowth: float64(with.Sched.II) / float64(base.Sched.II),
				copies:   nCopies,
			}
		})
		var ok, sameII, sameSC, copies int
		var growth float64
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			if r.sameII {
				sameII++
			}
			if r.sameSC {
				sameSC++
			}
			growth += r.iiGrowth
			copies += r.copies
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d FUs", nfu),
			pct(sameII, ok),
			pct(sameSC, ok),
			fmt.Sprintf("%.3fx", growth/float64(ok)),
			fmt.Sprintf("%.2f", float64(copies)/float64(ok)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ~95% of loops keep the same II after copy insertion; stage count unchanged for most loops")
	return t
}

package exp

import (
	"fmt"

	"vliwq"
	"vliwq/internal/copyins"
	"vliwq/internal/ir"
	"vliwq/internal/machine"
)

// AblationCopyShape compares the two copy-tree topologies (DESIGN.md A1):
// balanced trees add O(log n) latency to fanned-out values, chains O(n).
// The paper uses the dedicated copy FU without specifying the shape; this
// ablation shows why the tree is the right default.
func AblationCopyShape(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-copyshape",
		Title:  "Copy fanout shape: balanced tree vs chain (6 FUs)",
		Header: []string{"shape", "mean II", "mean stage count", "mean queues", "II wins vs other"},
	}
	cfg := machine.SingleCluster(6)
	type res struct {
		ok       bool
		iiT, iiC int
		scT, scC int
		qT, qC   int
	}
	compTree := opts.compiler(vliwq.Options{Machine: cfg})
	compChain := opts.compiler(vliwq.Options{Machine: cfg, CopyShape: copyins.Chain})
	results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
		tr, errTree := compTree(l)
		ch, errChain := compChain(l)
		if errTree != nil || errChain != nil {
			return res{}
		}
		return res{
			ok:  true,
			iiT: tr.Sched.II, iiC: ch.Sched.II,
			scT: tr.Sched.StageCount(), scC: ch.Sched.StageCount(),
			qT: tr.Alloc.MaxPrivateQueues(), qC: ch.Alloc.MaxPrivateQueues(),
		}
	})
	var ok, winT, winC int
	var iiT, iiC, scT, scC, qT, qC float64
	for _, r := range results {
		if !r.ok {
			continue
		}
		ok++
		iiT += float64(r.iiT)
		iiC += float64(r.iiC)
		scT += float64(r.scT)
		scC += float64(r.scC)
		qT += float64(r.qT)
		qC += float64(r.qC)
		if r.iiT < r.iiC {
			winT++
		}
		if r.iiC < r.iiT {
			winC++
		}
	}
	f := func(v float64) string { return fmt.Sprintf("%.2f", v/float64(ok)) }
	t.Rows = append(t.Rows,
		[]string{"tree", f(iiT), f(scT), f(qT), pct(winT, ok)},
		[]string{"chain", f(iiC), f(scC), f(qC), pct(winC, ok)},
	)
	t.Notes = append(t.Notes, "tree never adds more than ceil(log2(fanout)) copy latencies to a path")
	return t
}

// AblationMoveOps evaluates the paper's proposed future extension (§5):
// move operations carrying values between non-adjacent clusters. The paper
// conjectures this recovers the II lost at 5 and 6 clusters; the ablation
// measures exactly that.
func AblationMoveOps(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-moves",
		Title:  "Move-op extension: same-II fraction vs single cluster",
		Header: []string{"clusters", "moves off", "moves on", "mean moves/loop (on)"},
	}
	for _, nc := range machine.PaperClusterCounts {
		single := machine.SingleCluster(3 * nc)
		base := machine.Clustered(nc)
		withMoves := machine.Clustered(nc)
		withMoves.AllowMoves = true
		type res struct {
			ok              bool
			sameOff, sameOn bool
			moves           int
		}
		compRef := opts.compiler(vliwq.Options{Machine: single, Unroll: true})
		compOff := opts.factorCompilers(vliwq.Options{Machine: base})
		compOn := opts.factorCompilers(vliwq.Options{Machine: withMoves})
		results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
			// Both clustered variants are forced to the factor AutoFactor
			// chose for the single-cluster reference.
			ref, err := compRef(l)
			if err != nil {
				return res{}
			}
			off, errOff := compOff[ref.Unrolled](l)
			on, errOn := compOn[ref.Unrolled](l)
			if errOff != nil || errOn != nil {
				return res{}
			}
			moves := 0
			for _, op := range on.Sched.Loop.Ops {
				if op.Kind == ir.KMove {
					moves++
				}
			}
			return res{
				ok:      true,
				sameOff: off.Sched.II <= ref.Sched.II,
				sameOn:  on.Sched.II <= ref.Sched.II,
				moves:   moves,
			}
		})
		var ok, sameOff, sameOn, moves int
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			if r.sameOff {
				sameOff++
			}
			if r.sameOn {
				sameOn++
			}
			moves += r.moves
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nc),
			pct(sameOff, ok),
			pct(sameOn, ok),
			fmt.Sprintf("%.2f", float64(moves)/float64(ok)),
		})
	}
	t.Notes = append(t.Notes,
		"paper §5: 'a more sophisticated scheme using move operations ... should make possible for a clustered machine to achieve performance figures similar to ... a single cluster machine'")
	return t
}

// AblationCommLatency measures sensitivity to inter-cluster communication
// latency (the paper's ring writes into the neighbour's queue directly;
// real implementations may need a cycle or two).
func AblationCommLatency(opts Options) *Table {
	loops := opts.loops()
	t := &Table{
		ID:     "ablation-commlat",
		Title:  "Inter-cluster communication latency sensitivity (4 clusters)",
		Header: []string{"comm latency", "same II as lat 0", "mean II"},
	}
	type res struct {
		ok  bool
		iis [3]int
	}
	lats := []int{0, 1, 2}
	comps := make([]func(*ir.Loop) (*vliwq.Result, error), len(lats))
	for i, lat := range lats {
		cfg := machine.Clustered(4)
		cfg.CommLatency = lat
		comps[i] = opts.compiler(vliwq.Options{Machine: cfg, Unroll: true})
	}
	results := forEach(loops, opts.workers(), func(l *ir.Loop) res {
		var r res
		r.ok = true
		for i := range lats {
			c, err := comps[i](l)
			if err != nil {
				return res{}
			}
			r.iis[i] = c.Sched.II
		}
		return r
	})
	for i, lat := range lats {
		var ok, same int
		var sum float64
		for _, r := range results {
			if !r.ok {
				continue
			}
			ok++
			if r.iis[i] <= r.iis[0] {
				same++
			}
			sum += float64(r.iis[i])
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d cycles", lat),
			pct(same, ok),
			fmt.Sprintf("%.2f", sum/float64(ok)),
		})
	}
	t.Notes = append(t.Notes,
		"latency tolerance comes from software pipelining: communication latency folds into lifetimes, not into the II, unless a recurrence crosses clusters")
	return t
}

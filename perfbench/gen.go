package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"vliwq"
	"vliwq/internal/corpus"
	"vliwq/internal/ir"
	"vliwq/internal/program"
	"vliwq/internal/service"
)

// defaultSeed is the --seed default; figures' expected output is checked in
// for it.
const defaultSeed = 1

// Stream tags keep the seeded streams of one --seed independent.
const (
	tagCold = iota + 1
	tagWarm
	tagFigures
	tagBatch
	tagSpell
)

// subSeed derives a stream seed from the benchmark seed (splitmix64).
func subSeed(seed int64, tag int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(tag)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h >> 1)
}

// distinct generates loops from p until it has n whose dependence graphs
// are pairwise non-isomorphic (distinct ir.Fingerprint), so no loop of a
// set can be served from another's structural cache entry.
func distinct(p corpus.Params, n int) ([]*ir.Loop, error) {
	p.N = n + n/4
	seen := make(map[string]bool, n)
	out := make([]*ir.Loop, 0, n)
	for _, l := range corpus.Generate(p) {
		fp := ir.Fingerprint(l)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, l)
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("corpus seed %d: only %d distinct loops in %d generated", p.Seed, len(out), p.N)
}

// Every workload draws its loops from a fixed base set of one of the
// repo's corpus presets, and the seed re-spells them: a seeded statement
// order and seeded names. A seed thus changes the bytes of every request
// the program receives, but not the set's cost profile: fresh random
// loops per seed made the rare loops that dominate a run's cost (a
// budget-cut branch-and-bound search, a 256-op unrolled body) come and
// go with the seed, and the spread between seeds exceeded the bounds.

// permute returns l in a seeded random statement order: a random
// topological order of the distance-0 dependences, with the dependence
// list kept in sequence so every consumer's operand order survives. ok is
// false when the drawn order is the original one.
func permute(l *ir.Loop, rng *rand.Rand) (*ir.Loop, bool) {
	n := len(l.Ops)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, d := range l.Deps {
		if d.Dist == 0 {
			succ[d.From] = append(succ[d.From], d.To)
			indeg[d.To]++
		}
	}
	var ready []int
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	perm := make([]int, n) // perm[old] = new statement position
	moved := false
	for pos := 0; len(ready) > 0; pos++ {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready = append(ready[:k], ready[k+1:]...)
		perm[v] = pos
		moved = moved || v != pos
		for _, w := range succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if !moved {
		return l, false
	}
	c := l.Clone()
	for i, op := range l.Ops {
		cp := *op
		cp.ID = perm[i]
		c.Ops[perm[i]] = &cp
	}
	for j := range c.Deps {
		c.Deps[j].From = perm[l.Deps[j].From]
		c.Deps[j].To = perm[l.Deps[j].To]
	}
	return c, true
}

// rename returns l under the loop name `name` with fresh, seeded operand
// names, statements and their order untouched.
func rename(l *ir.Loop, rng *rand.Rand, name string) *ir.Loop {
	c := l.Clone()
	c.Name = name
	perm := rng.Perm(len(c.Ops))
	for i, op := range c.Ops {
		op.Name = fmt.Sprintf("%c%d", 'a'+rng.Intn(26), perm[i])
	}
	return c
}

// respell draws a seeded spelling of every base loop, in base order:
// statements permuted where the loop allows, then renamed. The order is
// kept so that the loops sharing a /batch call, and with them the call's
// cost, do not change with the seed.
func respell(base []*ir.Loop, seed int64, tag int) []*ir.Loop {
	rng := rand.New(rand.NewSource(subSeed(seed, tag)))
	out := make([]*ir.Loop, len(base))
	for i, l := range base {
		p, _ := permute(l, rng)
		out[i] = rename(p, rng, fmt.Sprintf("L%d", i))
	}
	return out
}

// coldRequest is the request cold-verify and warm-gateway send: the
// paper's 4-cluster machine with automatic unrolling, every other knob at
// its default (so verification is on).
func coldRequest(loop string) service.CompileRequest {
	return service.CompileRequest{Loop: loop, Machine: "clustered:4", Unroll: true}
}

// coldSet is cold-verify's timed set — n distinct loops of the standard
// corpus, re-spelled by the seed — plus `warm` further loops for the
// set-up's warm-up.
func coldSet(seed int64, n, warm int) (set, warmup []service.CompileRequest, err error) {
	base, err := distinct(corpus.Params{Seed: corpus.DefaultSeed}, n+warm)
	if err != nil {
		return nil, nil, err
	}
	for i, l := range respell(base, seed, tagCold) {
		req := coldRequest(vliwq.FormatLoop(l))
		if i < warm {
			warmup = append(warmup, req)
		} else {
			set = append(set, req)
		}
	}
	return set, warmup, nil
}

// batchSet is batch-tiered's timed set — n distinct loops of the stressed
// corpus, re-spelled by the seed — plus `warm` further loops for the
// set-up's warm-up. Each loop is tiered the way internal/program tiers
// regions: program.Hard loops get the certified optimal tier, the rest
// exhaustive.
func batchSet(seed int64, n, warm int) (set, warmup []service.CompileRequest, err error) {
	base, err := distinct(corpus.StressedParams(), n+warm)
	if err != nil {
		return nil, nil, err
	}
	m, err := vliwq.ParseMachine(program.DefaultMachine)
	if err != nil {
		return nil, nil, err
	}
	for i, l := range respell(base, seed, tagBatch) {
		eff := "exhaustive"
		if program.Hard(l, m, 0) {
			eff = "optimal"
		}
		req := service.CompileRequest{Loop: vliwq.FormatLoop(l), Machine: program.DefaultMachine, Effort: eff}
		if i < warm {
			warmup = append(warmup, req)
		} else {
			set = append(set, req)
		}
	}
	return set, warmup, nil
}

// spelling is one request text of warm-gateway's pool.
type spelling struct {
	class int // index of the class leader
	kind  int // spellExact, spellRenamed or spellPermuted
	req   service.CompileRequest
	body  []byte
}

const (
	spellExact = iota
	spellRenamed
	spellPermuted
)

// warmPool is warm-gateway's input: `classes` class leaders — distinct
// standard-corpus loops re-spelled by the seed — and `spellings` renamed
// and `spellings` statement-permuted spellings of each class. Every
// spelling carries fresh names, so no two share an exact key: sent once
// per round, each one misses the exact cache and takes the structural
// path. Every permuted spelling is checked to share its leader's
// structural key and to align onto the leader's statement order (the
// preconditions under which the service answers it without compiling). A
// class whose loop allows no such reordering keeps none, and the classes
// after it draw its share, so the pool holds classes*spellings permuted
// spellings whenever enough classes can be reordered.
func warmPool(seed int64, classes, spellings int) ([]spelling, error) {
	base, err := distinct(corpus.Params{Seed: corpus.DefaultSeed}, classes)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, tagSpell)))
	var out []spelling
	keys := map[string]bool{}
	// add appends l as a spelling unless its exact key repeats an earlier
	// one's.
	add := func(class, kind int, l *ir.Loop) (bool, error) {
		req := coldRequest(vliwq.FormatLoop(l))
		if keys[req.Canonical()] {
			return false, nil
		}
		body, err := json.Marshal(req)
		if err != nil {
			return false, err
		}
		keys[req.Canonical()] = true
		out = append(out, spelling{class: class, kind: kind, req: req, body: body})
		return true, nil
	}
	owed := 0 // permuted spellings earlier classes could not supply
	for _, l := range respell(base, seed, tagWarm) {
		class := len(out)
		if _, err := add(class, spellExact, l); err != nil {
			return nil, err
		}
		lead := out[class].req
		for v, kept := 0, 0; kept < spellings && v < 4*spellings; v++ {
			ok, err := add(class, spellRenamed, rename(l, rng, fmt.Sprintf("%s_r%d", l.Name, v)))
			if err != nil {
				return nil, err
			}
			if ok {
				kept++
			}
		}
		want, kept := spellings+owed, 0
		for v := 0; kept < want && v < 4*want; v++ {
			p, ok := permute(l, rng)
			if !ok {
				continue
			}
			p = rename(p, rng, fmt.Sprintf("%s_p%d", l.Name, v))
			if !alignable(lead, vliwq.FormatLoop(p)) {
				continue
			}
			ok, err := add(class, spellPermuted, p)
			if err != nil {
				return nil, err
			}
			if ok {
				kept++
			}
		}
		owed = want - kept
	}
	return out, nil
}

// alignable reports whether text is a statement-permuted spelling the
// structural layer serves by alignment: same structural key as the leader,
// a different canonical key, and an ir.AlignLike onto the leader that
// restores the leader's skeleton.
func alignable(leader service.CompileRequest, text string) bool {
	req := leader
	req.Loop = text
	if req.StructuralKey() != leader.StructuralKey() || req.Canonical() == leader.Canonical() {
		return false
	}
	l, err := vliwq.ParseLoop(text)
	if err != nil {
		return false
	}
	target, err := vliwq.ParseLoop(leader.Loop)
	if err != nil {
		return false
	}
	aligned, ok := ir.AlignLike(l, target)
	return ok && ir.Skeleton(aligned) == ir.Skeleton(target)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"vliwq"
	"vliwq/internal/ir"
	"vliwq/internal/pool"
	"vliwq/internal/service"
)

// expected is the reference answer for one request: an in-process
// vliwq.Compiler.Run of the same spelling — uncached, with simulator
// verification on unless the request skips it — rendered into the exact
// bytes vliwd answers with.
type expected struct {
	res  *vliwq.Result
	body []byte // response body, trailing newline included
	err  error
}

// reference is the uncached session every check compiles through.
var reference = vliwq.NewCompiler(vliwq.CompilerConfig{CacheEntries: -1})

func expect(req service.CompileRequest) expected {
	n := req
	if err := n.Normalize(); err != nil {
		return expected{err: err}
	}
	res, err := reference.Run(context.Background(), n)
	if err != nil {
		return expected{err: err}
	}
	body, err := encodeJSON(render(res, n.Effort))
	return expected{res: res, body: body, err: err}
}

// expectAll computes the references of reqs on `clients` workers.
func expectAll(reqs []service.CompileRequest) []expected {
	out := make([]expected, len(reqs))
	pool.Run(context.Background(), len(reqs), clients, func(i int) {
		out[i] = expect(reqs[i])
	}, nil)
	return out
}

// render builds the /compile response for a compiled Result field by field
// from the public Result, independently of the service's own renderer.
func render(res *vliwq.Result, effort string) *service.CompileResponse {
	resp := &service.CompileResponse{
		Loop:       res.Input.Name,
		Machine:    res.Sched.Machine.Name,
		Unrolled:   res.Unrolled,
		II:         res.II,
		MII:        res.MII,
		Stages:     res.StageCount,
		IPCStatic:  res.IPCStatic,
		IPCDynamic: res.IPCDynamic,
		Queues:     res.Queues,
		RingQueues: res.RingQueues,
		Effort:     effort,
		Strategy:   res.Strategy,
		Report:     res.Report(),
		Kernel:     res.KernelSchedule(),
	}
	if res.Bound.Lower > 0 {
		resp.Bound = &service.BoundInfo{
			Lower:       res.Bound.Lower,
			Optimal:     res.Bound.Optimal,
			DeadlineCut: res.Bound.DeadlineCut,
		}
	}
	return resp
}

// encodeJSON frames v the way every vliwq endpoint does: HTML left
// unescaped, one trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// expectPermuted is the answer the structural layer owes a
// statement-permuted spelling of a compiled class: the leader's reference
// Result, aligned onto the spelling's statement order and remapped to its
// names, rendered. The remap must keep the leader's II, MII and queue
// counts.
func expectPermuted(lead expected, req service.CompileRequest) expected {
	if lead.err != nil || lead.res == nil {
		return expected{err: fmt.Errorf("leader has no reference")}
	}
	if err := req.Normalize(); err != nil {
		return expected{err: err}
	}
	l, err := vliwq.ParseLoop(req.Loop)
	if err != nil {
		return expected{err: err}
	}
	aligned, ok := ir.AlignLike(l, lead.res.Input)
	if !ok {
		return expected{err: fmt.Errorf("does not align onto its leader")}
	}
	res, err := vliwq.RemapResult(lead.res, aligned)
	if err != nil {
		return expected{err: err}
	}
	if res.II != lead.res.II || res.MII != lead.res.MII || res.Queues != lead.res.Queues || res.RingQueues != lead.res.RingQueues {
		return expected{err: fmt.Errorf("II/MII/queues %d/%d/%d/%d, leader %d/%d/%d/%d",
			res.II, res.MII, res.Queues, res.RingQueues, lead.res.II, lead.res.MII, lead.res.Queues, lead.res.RingQueues)}
	}
	body, err := encodeJSON(render(res, req.Effort))
	return expected{res: res, body: body, err: err}
}

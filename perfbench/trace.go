package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) start(name string, req int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return int32(len(t.spans) - 1)
}

// end closes the span id opened by start.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerStat is one span name's totals: calls, wall time and self time
// (wall time minus the part covered by child spans).
type layerStat struct {
	calls      int
	total, own time.Duration
}

// stats aggregates spans by name.
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*layerStat)
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.own += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// meanUS is the mean wall time per call of one span name, in microseconds;
// 0 when the name never occurred.
func meanUS(st map[string]*layerStat, name string) float64 {
	s := st[name]
	if s == nil || s.calls == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.calls) / 1e3
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimeTable renders per-span-name calls, mean wall time and self time.
func (t *tracer) selfTimeTable() []string {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].own > st[names[j]].own })
	lines := []string{fmt.Sprintf("%-28s %8s %12s %12s %12s", "span", "calls", "total_ms", "self_ms", "mean_us")}
	for _, n := range names {
		s := st[n]
		lines = append(lines, fmt.Sprintf("%-28s %8d %12.3f %12.3f %12.2f", n, s.calls,
			float64(s.total.Nanoseconds())/1e6, float64(s.own.Nanoseconds())/1e6, meanUS(st, n)))
	}
	return lines
}

// writeFile writes every span as one JSON document.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

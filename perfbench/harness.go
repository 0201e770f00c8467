package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one per CPU of the 2-vCPU
// reference host, so the load generator never outnumbers the cores.
const clients = 2

// loopback is one in-process HTTP server on a loopback port.
type loopback struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

// serve starts h on 127.0.0.1 with the same server settings cmd/vliwd and
// cmd/vliwgate use.
func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return lb, nil
}

// close shuts the server down and waits for its goroutine to exit.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.hs.Shutdown(ctx); err != nil {
		_ = lb.hs.Close() // the deadline passed; drop what is left
	}
	<-lb.done
}

// newClient returns an HTTP client holding at most `clients` connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
	}}
}

// postOK sends one JSON body and returns the response body; any status
// but 200 is an error.
func postOK(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// callResult is the client-side record of one timed call.
type callResult struct {
	lat  time.Duration
	hash uint64 // FNV-64a of the response body
	body []byte // kept only where the check needs more than the hash
	err  error
	done bool
}

// phase is one closed-loop run over a fixed, indexed request list.
type phase struct {
	calls   []callResult
	elapsed time.Duration
	n       int // calls completed
}

// closedLoop runs `workers` clients, each sending the next unsent index as
// soon as its previous call returns, until all n calls are done or the
// deadline passes (calls in flight at the deadline finish and count).
func closedLoop(workers, n int, deadline time.Time, call func(i int) callResult) phase {
	p := phase{calls: make([]callResult, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := time.Now()
				r := call(i)
				r.lat = time.Since(s)
				r.done = true
				p.calls[i] = r
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	for _, c := range p.calls {
		if c.done {
			p.n++
		}
	}
	return p
}

// heapWatch samples the live heap — the bytes the last garbage
// collection found reachable — while a timed round runs and keeps the
// peak. Reachable bytes, unlike the heap's total size, do not depend on
// when the collector happened to run. It reads runtime/metrics, which does
// not stop the world.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB ends the sampling and returns the peak in MiB. It collects once
// more first, so what the round built up by its end — every cache it
// filled — counts even when no collection ran after it.
func (h *heapWatch) stopMB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}

// runtimeCounters snapshots the process-wide allocation and GC-pause
// totals for per-phase deltas.
type runtimeCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setupRuns is how many times a workload sets itself up; setup_s is the
// median, and the last set-up is the one the timed phase uses.
const setupRuns = 5

// timeSetups runs build setupRuns times, tearing down all but the last
// environment, and returns the last one with the median set-up time.
func timeSetups[E any](build func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			teardown(e)
		} else {
			env = e
		}
	}
	return env, median(times), nil
}

// errNoCalls reports a timed phase that completed nothing.
var errNoCalls = errors.New("timed phase completed no calls")

// timing accumulates the timed rounds of one phase into the end-to-end
// metrics.
type timing struct {
	lat     []float64 // per call, ms
	loops   int       // loops answered
	elapsed time.Duration
	rates   []float64 // loops per second of each full round
	peaks   []float64 // heap peak per full round
	partial []float64 // heap peak per round the deadline cut short
}

// add folds one round in: its calls, the loops they carried, and the
// round's heap peak.
func (t *timing) add(p phase, loopsPerCall int, peakMB float64) {
	for _, c := range p.calls {
		if c.done {
			t.lat = append(t.lat, ms(c.lat))
		}
	}
	t.loops += p.n * loopsPerCall
	t.elapsed += p.elapsed
	if p.n == len(p.calls) {
		t.rates = append(t.rates, float64(p.n*loopsPerCall)/p.elapsed.Seconds())
		t.peaks = append(t.peaks, peakMB)
	} else {
		t.partial = append(t.partial, peakMB)
	}
}

// p50 is the median call latency in ms.
func (t *timing) p50() float64 { return median(t.lat) }

// report sets the latency, throughput and heap metrics. Throughput and
// the heap peak are medians over the rounds that ran their whole request
// list, so every sample covers the same work and one disturbed round does
// not move the result; only when no round was full do cut rounds count.
func (t *timing) report(r *report) {
	r.set("latency_p50_ms", t.p50())
	r.set("latency_p90_ms", quantile(append([]float64(nil), t.lat...), 0.90))
	if len(t.lat) >= 1000 {
		r.note("latency_p99_ms %.4f ms", quantile(append([]float64(nil), t.lat...), 0.99))
	}
	rate, peaks := median(t.rates), t.peaks
	if len(peaks) == 0 {
		rate, peaks = float64(t.loops)/t.elapsed.Seconds(), t.partial
	}
	r.set("throughput_loops_per_s", rate)
	r.set("peak_heap_mb", median(peaks))
	r.note("samples: %d calls, %d loops in %.2fs over %d full + %d cut rounds",
		len(t.lat), t.loops, t.elapsed.Seconds(), len(t.peaks), len(t.partial))
}

// tracedCall wraps one client call in a client.call span for request rid.
func tracedCall(tr *tracer, rid int64, fn func(parent int32) callResult) callResult {
	id := tr.start("client.call", rid, -1)
	r := fn(id)
	tr.end(id)
	return r
}

// postTraced is post with an http.post span around the round trip.
func postTraced(tr *tracer, rid int64, parent int32, c *http.Client, url string, body []byte) callResult {
	var r callResult
	timed(tr, "http.post", rid, parent, func() {
		var data []byte
		data, r.err = postOK(c, url, body)
		r.hash = hash64(data)
		r.body = data
	})
	return r
}

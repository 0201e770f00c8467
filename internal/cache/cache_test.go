package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoMemoizes(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	var computes atomic.Int64
	get := func(k string, v int) int {
		return c.Do(k, func() int { computes.Add(1); return v })
	}
	if got := get("a", 1); got != 1 {
		t.Fatalf("Do(a) = %d, want 1", got)
	}
	if got := get("a", 99); got != 1 {
		t.Fatalf("second Do(a) = %d, want memoized 1", got)
	}
	if got := get("b", 2); got != 2 {
		t.Fatalf("Do(b) = %d, want 2", got)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("compute ran %d times, want 2", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 entries=2 evictions=0", s)
	}
}

func TestGet(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache reported a value")
	}
	c.Do("k", func() int { return 7 })
	v, ok := c.Get("k")
	if !ok || v != 7 {
		t.Fatalf("Get(k) = %d, %t; want 7, true", v, ok)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("Get changed hit/miss counters: %+v", s)
	}
}

// TestConcurrentSameKey verifies the per-entry singleflight contract: many
// goroutines racing on one key observe a single compute and one value.
func TestConcurrentSameKey(t *testing.T) {
	c := New[string, int](Options{Shards: 4}, StringHash)
	var computes atomic.Int64
	var wg sync.WaitGroup
	const workers = 32
	out := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = c.Do("hot", func() int {
				computes.Add(1)
				return 42
			})
		}(w)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for w, v := range out {
		if v != 42 {
			t.Fatalf("worker %d saw %d, want 42", w, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("stats = %+v, want misses=1 hits=%d", s, workers-1)
	}
}

// TestConcurrentManyKeys exercises shard contention across distinct keys;
// run under -race this is the cache's main data-race check.
func TestConcurrentManyKeys(t *testing.T) {
	c := New[string, int](Options{Shards: 8}, StringHash)
	const keys, workers = 64, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("k%d", (i+w)%keys)
				want := (i + w) % keys
				if got := c.Do(k, func() int { return want }); got != want {
					t.Errorf("Do(%s) = %d, want %d", k, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != keys {
		t.Fatalf("Len = %d, want %d", c.Len(), keys)
	}
}

func TestBoundedEviction(t *testing.T) {
	const bound = 8
	c := New[int, int](Options{Shards: 1, MaxEntries: bound}, func(k int) uint64 { return uint64(k) })
	for i := 0; i < 4*bound; i++ {
		c.Do(i, func() int { return i })
	}
	if n := c.Len(); n > bound {
		t.Fatalf("bounded cache holds %d entries, want <= %d", n, bound)
	}
	s := c.Stats()
	if s.Evictions != 4*bound-bound {
		t.Fatalf("evictions = %d, want %d", s.Evictions, 4*bound-bound)
	}
	// Every lookup still computes the right value after eviction churn.
	for i := 0; i < 4*bound; i++ {
		if got := c.Do(i, func() int { return i }); got != i {
			t.Fatalf("post-eviction Do(%d) = %d", i, got)
		}
	}
}

func TestShardRounding(t *testing.T) {
	// A non-power-of-two shard request must still place and find keys.
	c := New[string, int](Options{Shards: 5}, StringHash)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		c.Do(k, func() int { return i })
	}
	for i := 0; i < 100; i++ {
		v, ok := c.Get(fmt.Sprintf("key-%d", i))
		if !ok || v != i {
			t.Fatalf("Get(key-%d) = %d, %t", i, v, ok)
		}
	}
}

func TestStringHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[StringHash(fmt.Sprintf("loop%04d", i))] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("StringHash collided on sequential names: %d distinct of 1000", len(seen))
	}
}

// TestBoundedExactCap checks MaxEntries is honored exactly: per-shard caps
// sum to the bound, and the shard count folds so small bounds still fill.
func TestBoundedExactCap(t *testing.T) {
	const bound = 20
	c := New[string, int](Options{MaxEntries: bound}, StringHash)
	for i := 0; i < 60; i++ {
		c.Do(fmt.Sprintf("key-%d", i), func() int { return i })
	}
	if n := c.Len(); n != bound {
		t.Fatalf("bounded cache settled at %d entries, want exactly %d", n, bound)
	}
}

// keep wraps a value as a Keep-verdict compute result.
func keep(v int) func() (int, Verdict) {
	return func() (int, Verdict) { return v, Keep }
}

// startCompute launches a DoContext call whose compute blocks until
// release is closed, and returns once that compute is running (the entry
// is in flight). The call's outcome arrives on the returned channel.
func startCompute(c *Cache[string, int], k string, v int, verdict Verdict, release <-chan struct{}) <-chan int {
	started := make(chan struct{})
	out := make(chan int, 1)
	go func() {
		got, _, _ := c.DoContext(context.Background(), k, func() (int, Verdict) {
			close(started)
			<-release
			return v, verdict
		})
		out <- got
	}()
	<-started
	return out
}

// waitCoalesced polls until n callers have joined an in-flight compute.
func waitCoalesced(t *testing.T, c *Cache[string, int], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want >= %d", c.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelledJoinerKeepsCompute: a joiner whose context ends returns
// ctx.Err() while the creator's compute is still running; the compute
// finishes for its creator and is kept for the next call.
func TestCancelledJoinerKeepsCompute(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	leader := startCompute(c, "k", 7, Keep, release)

	ctx, cancel := context.WithCancel(context.Background())
	joiner := make(chan error, 1)
	go func() {
		_, info, err := c.DoContext(ctx, "k", keep(0))
		if !info.Joined {
			t.Errorf("cancelled joiner info = %+v, want Joined", info)
		}
		joiner <- err
	}()
	waitCoalesced(t, c, 1)
	cancel()
	select {
	case err := <-joiner:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled joiner returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner still waiting on the in-flight compute")
	}

	close(release)
	if v := <-leader; v != 7 {
		t.Fatalf("creator got %d, want 7", v)
	}
	if v, info, err := c.DoContext(context.Background(), "k", keep(0)); v != 7 || err != nil || info.Created {
		t.Fatalf("after the compute: (%d, %+v, %v), want the kept 7", v, info, err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want one compute, kept", s)
	}
}

// TestRecomputeVerdict: a Recompute value reaches its creator only. Every
// live joiner is sent back to the key, where exactly one of them
// recomputes and the rest join that; a joiner whose context has ended by
// then returns its own error instead.
func TestRecomputeVerdict(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	leader := startCompute(c, "k", -1, Recompute, release)

	const joiners = 4
	var recomputes atomic.Int64
	vals := make(chan int, joiners)
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.DoContext(context.Background(), "k", func() (int, Verdict) {
				recomputes.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 2, Keep
			})
			if err != nil {
				t.Errorf("live joiner: %v", err)
			}
			vals <- v
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	dead := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(ctx, "k", keep(3))
		dead <- err
	}()
	waitCoalesced(t, c, joiners+1)
	cancel()
	if err := <-dead; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner returned %v, want context.Canceled", err)
	}

	close(release)
	if v := <-leader; v != -1 {
		t.Fatalf("creator got %d, want its own value -1", v)
	}
	wg.Wait()
	close(vals)
	for v := range vals {
		if v != 2 {
			t.Fatalf("live joiner got %d, want the recomputed 2", v)
		}
	}
	if n := recomputes.Load(); n != 1 {
		t.Fatalf("%d recomputes, want exactly 1", n)
	}
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("Get = (%d, %t), want the kept recompute", v, ok)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want misses=2 entries=1 evictions=0", s)
	}
}

// TestServeThenDropVerdict: joiners of a ServeThenDrop compute get its
// value, and the entry is gone afterwards, so the next call recomputes.
// Dropping is not eviction.
func TestServeThenDropVerdict(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	leader := startCompute(c, "k", 5, ServeThenDrop, release)
	joiner := make(chan int, 1)
	go func() {
		v, _, _ := c.DoContext(context.Background(), "k", keep(0))
		joiner <- v
	}()
	waitCoalesced(t, c, 1)
	close(release)
	if a, b := <-leader, <-joiner; a != 5 || b != 5 {
		t.Fatalf("creator/joiner got %d/%d, want 5/5", a, b)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("ServeThenDrop value still cached")
	}
	v, info, _ := c.DoContext(context.Background(), "k", keep(6))
	if v != 6 || !info.Created {
		t.Fatalf("next call = (%d, %+v), want a fresh compute of 6", v, info)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 1 || s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want misses=2 hits=1 entries=1 evictions=0", s)
	}
}

// TestPanickingComputeReleasesJoiners: a compute that panics must not
// strand its joiners; they retry as after a Recompute verdict.
func TestPanickingComputeReleasesJoiners(t *testing.T) {
	c := New[string, int](Options{}, StringHash)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		c.DoContext(context.Background(), "k", func() (int, Verdict) {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started
	joiner := make(chan int, 1)
	go func() {
		v, _, _ := c.DoContext(context.Background(), "k", keep(9))
		joiner <- v
	}()
	waitCoalesced(t, c, 1)
	close(release)
	if v := <-joiner; v != 9 {
		t.Fatalf("joiner got %d, want its own recompute 9", v)
	}
}

// TestDoContextClassification pins the three outcomes: Created on first
// use, Joined while the compute is in flight, neither on a completed-entry
// hit — and the Coalesced counter tracking exactly the Joined calls.
func TestDoContextClassification(t *testing.T) {
	c := New[string, int](Options{Shards: 1}, StringHash)

	started := make(chan struct{})
	release := make(chan struct{})
	joined := make(chan Info, 1)
	go func() {
		_, info, _ := c.DoContext(context.Background(), "k", func() (int, Verdict) {
			close(started)
			<-release
			return 7, Keep
		})
		if !info.Created || info.Joined {
			t.Errorf("leader info = %+v, want Created", info)
		}
		joined <- info
	}()
	<-started

	done := make(chan Info, 1)
	go func() {
		_, info, _ := c.DoContext(context.Background(), "k", keep(0))
		done <- info
	}()
	// The joiner classifies before it waits; once it has, let the leader
	// finish.
	waitCoalesced(t, c, 1)
	close(release)
	if info := <-done; !info.Joined || info.Created {
		t.Fatalf("joiner info = %+v, want Joined", info)
	}
	<-joined

	if v, info, _ := c.DoContext(context.Background(), "k", keep(0)); v != 7 || info.Created || info.Joined {
		t.Fatalf("completed-entry hit: v=%d info=%+v, want v=7 and neither flag", v, info)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Coalesced != 1 {
		t.Fatalf("stats = %+v, want misses=1 hits=2 coalesced=1", s)
	}
}

// TestCoalescedSubsetOfHits: under heavy same-key contention every call is
// either the one miss, a coalesced hit, or a plain hit; coalesced never
// exceeds hits and the sum of classifications covers every call.
func TestCoalescedSubsetOfHits(t *testing.T) {
	c := New[string, int](Options{Shards: 4}, StringHash)
	var wg sync.WaitGroup
	const workers = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.DoContext(context.Background(), "hot", func() (int, Verdict) {
				time.Sleep(2 * time.Millisecond)
				return 1, Keep
			})
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Fatalf("stats = %+v, want misses=1 hits=%d", s, workers-1)
	}
	if s.Coalesced < 1 || s.Coalesced > s.Hits {
		t.Fatalf("coalesced = %d, want within [1, %d]", s.Coalesced, s.Hits)
	}
}

// TestHitDoesNotAllocate: a hit on a completed entry allocates nothing,
// through Do (exp.Pipeline's hit-heavy path, struct keys) and DoContext.
func TestHitDoesNotAllocate(t *testing.T) {
	type pipeKey struct {
		p *int
		d [4]uint64
	}
	x := 3
	k := pipeKey{p: &x}
	c := New[pipeKey, int](Options{}, func(k pipeKey) uint64 { return k.d[0] })
	c.Do(k, func() int { return 1 })
	if n := testing.AllocsPerRun(1000, func() { c.Do(k, func() int { return x }) }); n != 0 {
		t.Fatalf("Do hit allocates %v times, want 0", n)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		c.DoContext(ctx, k, func() (int, Verdict) { return x, Keep })
	}); n != 0 {
		t.Fatalf("DoContext hit allocates %v times, want 0", n)
	}
}

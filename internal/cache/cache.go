// Package cache provides the one concurrency-safe singleflight memo cache
// shared by the experiment pipeline (internal/exp), the Compiler session
// (vliwq), the service (internal/service) and the gateway's coalescer.
//
// The cache is sharded by key hash so that concurrent workers contend on a
// per-shard mutex rather than one cache-wide lock, and each entry computes
// its value once: when several goroutines ask for the same key
// simultaneously, one runs the compute function and the rest wait on it
// instead of duplicating the (comparatively expensive) work, under the one
// wait rule DoContext documents. Hit, miss and eviction counters are
// maintained for observability; a bounded-size mode caps the entry count
// with random replacement.
//
// Completed entries can be persisted and restored across process restarts
// via Save/Load (snapshot.go): a versioned, checksummed, deterministic
// binary format with caller-supplied key/value codecs, which is what lets
// vliwd warm-start its compile cache from disk.
package cache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Options configure a Cache. The zero value selects the defaults documented
// on each field.
type Options struct {
	// Shards is the number of independently locked shards; 0 selects 16.
	// Rounded up to a power of two so shard selection is a mask.
	Shards int
	// MaxEntries bounds the total entry count across all shards; 0 means
	// unbounded. Per-shard caps sum exactly to MaxEntries, and the shard
	// count shrinks for small bounds (at least 8 entries per shard) so a
	// hot shard does not evict while the cache is far below the bound.
	// When a shard is at its cap, an insertion evicts a random completed
	// entry from that shard (entries whose compute is still in flight are
	// never evicted, so the bound can be exceeded transiently by the
	// number of concurrent computes).
	MaxEntries int
}

// Stats is a point-in-time snapshot of the cache counters. Counters count
// lookups: a caller that retries after a Recompute verdict (see DoContext)
// looks up again and counts again, so hits+misses equals the call count
// whenever every verdict is Keep or ServeThenDrop.
type Stats struct {
	Hits      int64 `json:"hits"`      // a lookup found an existing entry
	Misses    int64 `json:"misses"`    // a lookup created the entry (and ran compute)
	Evictions int64 `json:"evictions"` // entries dropped by the size bound
	Entries   int64 `json:"entries"`   // current entry count
	// Coalesced counts the subset of Hits that joined an entry whose
	// compute was still in flight: concurrent demand for one key that a
	// singleflight collapsed into a single compute. (A coalesced call is
	// still a hit — the counter refines Hits rather than splitting it.)
	Coalesced int64 `json:"coalesced"`
}

// Cache memoizes values of type V under comparable keys of type K. The
// caller supplies the hash function used for sharding; it only affects
// shard balance, never correctness — equality is the language's == on K.
type Cache[K comparable, V any] struct {
	hash   func(K) uint64
	shards []shard[K, V]
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64
	coalesced atomic.Int64
}

type shard[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*entry[V]
	max int // entry cap; 0 = unbounded
}

type entry[V any] struct {
	wait    chan struct{} // closed once val and verdict are final
	val     V
	verdict Verdict
	done    atomic.Bool // set with wait's close; eviction and Save skip in-flight entries
}

// New returns an empty cache. hash maps a key to its shard and must be
// safe for concurrent use (pure functions are).
func New[K comparable, V any](opts Options, hash func(K) uint64) *Cache[K, V] {
	n := opts.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two for mask-based shard selection.
	p := 1
	for p < n {
		p <<= 1
	}
	// A bounded cache splits the bound across shards, so fold shards until
	// each holds a useful slice (>= 8 entries where the bound allows it):
	// many tiny shards would evict hot entries while the cache as a whole
	// sits far below MaxEntries.
	if opts.MaxEntries > 0 {
		for p > 1 && opts.MaxEntries/p < 8 {
			p >>= 1
		}
	}
	c := &Cache[K, V]{
		hash:   hash,
		shards: make([]shard[K, V], p),
		mask:   uint64(p - 1),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[K]*entry[V])
	}
	if opts.MaxEntries > 0 {
		// Per-shard caps sum exactly to MaxEntries: the first rem shards
		// take the remainder.
		base, rem := opts.MaxEntries/p, opts.MaxEntries%p
		for i := range c.shards {
			c.shards[i].max = base
			if i < rem {
				c.shards[i].max++
			}
		}
	}
	return c
}

// Verdict decides what becomes of a computed value: the creator always
// gets it, the verdict governs everyone else.
type Verdict uint8

const (
	// Keep caches the value: joiners get it and later calls hit it.
	Keep Verdict = iota
	// ServeThenDrop serves the value to every caller that joined the
	// compute, then drops the entry so the next call recomputes (a
	// certificate cut by the creator's deadline).
	ServeThenDrop
	// Recompute drops the entry without serving it: the value is its
	// creator's alone (its context error, its 504). Each joiner whose own
	// context is still live looks the key up again; one recomputes.
	Recompute
)

// Info reports how a DoContext call was served, by its last lookup.
type Info struct {
	// Created is true when this call created the entry and ran compute —
	// the cache-miss case.
	Created bool
	// Joined is true when this call found the entry with its compute still
	// in flight and waited on it: the singleflight-coalescing case.
	// Created and Joined are mutually exclusive; a plain hit on a completed
	// entry reports neither.
	Joined bool
}

// Do returns the memoized value for key k, running compute exactly once per
// key on first use and keeping every value. Concurrent callers of the same
// key share one compute: the first runs it, the rest block until it
// finishes. compute must not call back into the same cache key (it would
// wait on itself).
func (c *Cache[K, V]) Do(k K, compute func() V) V {
	v, _, _ := c.DoContext(context.Background(), k, func() (V, Verdict) { return compute(), Keep })
	return v
}

// DoContext is the context-aware singleflight, with one wait rule:
//
//   - The call that creates k's entry runs compute, which closes over that
//     caller's own context: a deadline cuts the creator's work, nobody
//     else's.
//   - Every other caller waits under its own ctx. A caller whose ctx ends
//     first returns ctx.Err() at once; the compute carries on for the rest.
//   - compute's Verdict decides what the others see: Keep caches the value,
//     ServeThenDrop hands it to the joiners and then forgets it, Recompute
//     withholds it and sends each live joiner back to look the key up
//     again.
//
// A completed entry answers without waiting, whatever the state of ctx.
// The error is non-nil only when ctx ended while this call waited.
func (c *Cache[K, V]) DoContext(ctx context.Context, k K, compute func() (V, Verdict)) (V, Info, error) {
	sh := &c.shards[c.hash(k)&c.mask]
	for {
		sh.mu.Lock()
		e := sh.m[k]
		if e == nil {
			e = &entry[V]{wait: make(chan struct{})}
			if sh.max > 0 && len(sh.m) >= sh.max {
				c.evictLocked(sh)
			}
			sh.m[k] = e
			c.entries.Add(1)
			c.misses.Add(1)
			sh.mu.Unlock()
			return c.fill(sh, k, e, compute), Info{Created: true}, nil
		}
		c.hits.Add(1)
		if e.done.Load() {
			sh.mu.Unlock()
			return e.val, Info{}, nil
		}
		c.coalesced.Add(1)
		sh.mu.Unlock()
		select {
		case <-e.wait:
			if e.verdict != Recompute {
				return e.val, Info{Joined: true}, nil
			}
			if ctx.Err() == nil {
				continue
			}
		case <-ctx.Done():
		}
		var zero V
		return zero, Info{Joined: true}, ctx.Err()
	}
}

// fill runs compute for the entry this call created and releases its
// joiners. A compute that panics releases them too, with a Recompute
// verdict, so no joiner waits forever on a value that will never come.
func (c *Cache[K, V]) fill(sh *shard[K, V], k K, e *entry[V], compute func() (V, Verdict)) V {
	e.verdict = Recompute
	defer func() {
		if e.verdict != Keep { // only fill removes an in-flight entry
			sh.mu.Lock()
			delete(sh.m, k)
			c.entries.Add(-1)
			sh.mu.Unlock()
		}
		e.done.Store(true)
		close(e.wait)
	}()
	e.val, e.verdict = compute()
	return e.val
}

// Get reports the memoized value for k, if a completed one exists. It never
// blocks on an in-flight compute and does not touch the hit/miss counters.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh := &c.shards[c.hash(k)&c.mask]
	sh.mu.Lock()
	e := sh.m[k]
	sh.mu.Unlock()
	if e == nil || !e.done.Load() {
		var zero V
		return zero, false
	}
	return e.val, true
}

// evictLocked drops one completed entry from sh (random replacement via map
// iteration order). Entries still computing are skipped: their joiners are
// waiting on them, and a later caller must find them rather than start a
// duplicate compute.
func (c *Cache[K, V]) evictLocked(sh *shard[K, V]) {
	for k, e := range sh.m {
		if e.done.Load() {
			delete(sh.m, k)
			c.entries.Add(-1)
			c.evictions.Add(1)
			return
		}
	}
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int { return int(c.entries.Load()) }

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

// StringHash is FNV-1a over the key bytes — the default hash for
// string-keyed caches.
func StringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

package gateway

import (
	"context"
	"errors"
	"net/http"

	"vliwq/internal/cache"
)

// Request coalescing: N concurrent /compile requests for one exact
// canonical key collapse into a single dispatch — one ring walk, one
// backend HTTP request, one compile — and every caller relays the same
// answer. This is what stops a failover stampede: when the owner is slow or
// down, the first caller's ring walk (with its backoff and breaker dance)
// is the ONLY one in flight; concurrent callers for the key join it instead
// of each marching the ring and piling onto the surviving peer.
//
// The key is the EXACT canonical key, not the structural one: isomorphic
// but differently-named requests need differently-named response bytes, so
// they must each reach a backend (the same backend — Route hashes the
// structural key — where the Compiler's class cache collapses the actual
// compile).
//
// The coalescer runs on internal/cache's singleflight and its wait rule,
// with verdicts that never keep a value: the gateway memoizes nothing
// beyond the flight itself (backends own the caches).

// reply is one dispatch's outcome, shared by every coalesced caller.
type reply struct {
	status int
	hdr    http.Header
	data   []byte
	err    error
}

// verdict decides who else may relay a reply. Context errors and 504s are
// the leader's own deadline expiring: a joiner with a live deadline must
// not inherit them, so it retries — one joiner leads the next dispatch and
// the rest join it. Any other reply is served to the joiners and dropped.
func (r reply) verdict() cache.Verdict {
	if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) ||
		r.status == http.StatusGatewayTimeout {
		return cache.Recompute
	}
	return cache.ServeThenDrop
}

// coalesce runs do() once per key across concurrent callers: the first
// caller (the leader) dispatches under its own context, the rest wait on
// its reply under theirs. The bool reports whether this caller was served by
// another's dispatch (or stopped waiting for one) — the gateway's
// coalesced counter and, because joiners skip dispatch entirely, the
// owned/served routing counters both see exactly one request per flight.
// A joiner whose own context ends while waiting returns its context error.
func (g *Gateway) coalesce(ctx context.Context, key string, do func() (int, http.Header, []byte, error)) (reply, bool) {
	r, info, err := g.flights.DoContext(ctx, key, func() (reply, cache.Verdict) {
		var r reply
		r.status, r.hdr, r.data, r.err = do()
		return r, r.verdict()
	})
	if err != nil {
		r = reply{err: err}
	}
	return r, info.Joined
}

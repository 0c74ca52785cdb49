package main

import (
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	mwl "repro"
	"repro/internal/metrics"
)

// admission gates the solve endpoints: per-client token-bucket rate
// limits (429) and load shedding when the worker-pool queue is deeper
// than the cap (503), both with a Retry-After so well-behaved clients
// back off instead of retrying into the same wall. Shedding early —
// before a request parses its body or takes a queue slot — keeps an
// overloaded replica answering cheaply instead of timing out expensively,
// and in cluster mode a shed response makes the forwarding peer fall
// back rather than surfacing the 503 to the client.
type admission struct {
	svc      *mwl.Service
	queueCap int // shed when this many solves are already waiting; <=0 disables
	rl       *rateLimiter

	shed    atomic.Uint64 // requests refused for queue depth
	limited atomic.Uint64 // requests refused by the per-client rate limit
}

// newAdmission builds the gate. rate is tokens (requests) per second
// per client and burst the bucket size; rate <= 0 disables rate
// limiting. queueCap <= 0 disables shedding. Returns nil when both are
// disabled.
func newAdmission(svc *mwl.Service, queueCap int, rate float64, burst int) *admission {
	if queueCap <= 0 && rate <= 0 {
		return nil
	}
	a := &admission{svc: svc, queueCap: queueCap}
	if rate > 0 {
		if burst < 1 {
			burst = 1
		}
		a.rl = &rateLimiter{
			rate:       rate,
			burst:      float64(burst),
			maxClients: 4096,
			clients:    make(map[string]*bucket),
		}
	}
	return a
}

// admit reports whether the request may proceed; when it may not, the
// refusal has already been written. A nil gate admits everything.
// Requests forwarded by a peer replica bypass the per-client rate limit
// — the peer's client already paid at the peer — but not queue
// shedding, which protects this process no matter who asks.
func (a *admission) admit(w http.ResponseWriter, r *http.Request) bool {
	if a == nil {
		return true
	}
	if a.rl != nil && r.Header.Get(forwardedHeader) == "" {
		if retry, ok := a.rl.take(clientKey(r)); !ok {
			a.limited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusTooManyRequests, errors.New("rate limit exceeded"))
			return false
		}
	}
	if a.queueCap > 0 && a.svc.Queued() >= a.queueCap {
		a.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("worker queue full, shedding load"))
		return false
	}
	return true
}

// clientKey identifies the client for rate limiting: the remote host
// without the ephemeral port, so one client's connections share a
// bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a per-client token-bucket limiter. Buckets refill at
// rate tokens/second up to burst; an absent client starts with a full
// bucket. The client map is capped — when full, the stalest bucket is
// evicted, which at worst briefly refreshes one client's burst.
type rateLimiter struct {
	rate       float64
	burst      float64
	maxClients int

	mu      sync.Mutex
	clients map[string]*bucket
}

// take spends one token for the client if available. When the bucket is
// empty it reports ok=false and the whole seconds to wait until a token
// accrues — the Retry-After value.
func (rl *rateLimiter) take(key string) (retryAfter int, ok bool) {
	now := time.Now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.clients[key]
	if b == nil {
		if len(rl.clients) >= rl.maxClients {
			rl.evictStalest()
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.clients[key] = b
	} else {
		b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return int(math.Ceil((1 - b.tokens) / rl.rate)), false
}

// evictStalest drops the least-recently-seen bucket. Called with mu
// held.
func (rl *rateLimiter) evictStalest() {
	var victim string
	var oldest time.Time
	for k, b := range rl.clients {
		if victim == "" || b.last.Before(oldest) {
			victim, oldest = k, b.last
		}
	}
	delete(rl.clients, victim)
}

// registerMetrics registers the admission-control families on r; a nil
// gate registers none.
func (a *admission) registerMetrics(r *metrics.Registry) {
	if a == nil {
		return
	}
	r.CounterFunc("mwld_admission_shed_total", "Requests refused with 503 because the worker queue exceeded the depth cap.", a.shed.Load)
	r.CounterFunc("mwld_ratelimited_total", "Requests refused with 429 by the per-client rate limit.", a.limited.Load)
}

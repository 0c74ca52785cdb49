package mwl

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCacheEntries is the LRU entry cap applied when ServiceOptions
// leaves CacheEntries zero. It keeps a Service bounded by default: the
// pre-LRU behaviour of growing without limit is available explicitly
// with CacheEntries < 0.
const DefaultCacheEntries = 4096

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// Workers bounds concurrent solves; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries caps the in-memory LRU entry count. Zero applies
	// DefaultCacheEntries; negative disables the cap.
	CacheEntries int
	// CacheBytes caps the LRU's approximate memory footprint (JSON-
	// encoded solution size plus key). <= 0 disables the byte cap.
	CacheBytes int64
	// Store, when non-nil, persists solved problems and is consulted on
	// cache misses, so a restarted process re-serves previous answers
	// (Solution.Cached set) instead of recomputing them.
	Store Store
	// Verify runs mwl.Verify on every solution this Service produces or
	// loads itself: fresh solves fail with an ErrVerify-wrapped
	// diagnostic when a solver misbehaves, and store entries are
	// re-verified once on load, so a corrupted-but-parseable entry (e.g.
	// a bit-flipped area) is recomputed and repaired instead of served.
	// Cache hits are not re-verified. Copies inserted with Admit (cluster
	// replication and read-through) carry no problem to verify against:
	// CopyHit verifies one on its first hit, and elsewhere they are
	// trusted as the peer that sent them is.
	Verify bool
	// OnSolved, when non-nil, is called after every fresh successful
	// solve (cache hits, store hits and failures excluded) with the
	// problem's canonical hash and its solution. cmd/mwld uses it as the
	// write-through hook of cluster replication; the callback runs on
	// the solving goroutine, so implementations that do I/O should hand
	// the work off rather than block the solve.
	OnSolved func(key string, sol Solution)
}

// Service is a concurrent solve front end: it bounds the number of
// solves running at once with a worker pool, deduplicates identical
// problems that are in flight simultaneously, and caches successful
// solutions keyed by the canonical problem hash in a bounded LRU,
// optionally layered over a persistent Store. A Service is safe for
// concurrent use; the zero value is not usable — construct one with
// NewService or NewServiceWith.
type Service struct {
	sem      chan struct{} // worker-pool slots
	store    Store         // optional persistence under the LRU
	verify   bool          // validate every solution before serving it
	onSolved func(key string, sol Solution)

	queued atomic.Int64 // solves waiting for a worker slot right now

	mu       sync.Mutex
	cache    *lruCache             // completed solutions, bounded
	inflight map[string]*memoEntry // running solves, never evicted

	stats   CacheStats // counter fields only; gauges derived on demand
	methods map[string]*methodMetrics
}

// memoEntry is one in-flight solve. done is closed when sol/err are
// valid; waiters with identical problems block on it instead of solving.
type memoEntry struct {
	done chan struct{}
	sol  Solution
	err  error
}

// NewService returns a Service running at most workers solves
// concurrently with default cache bounds and no persistent store;
// workers <= 0 means GOMAXPROCS.
func NewService(workers int) *Service {
	return NewServiceWith(ServiceOptions{Workers: workers})
}

// NewServiceWith returns a Service configured by opts.
func NewServiceWith(opts ServiceOptions) *Service {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entries := opts.CacheEntries
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if entries < 0 {
		entries = 0 // unlimited
	}
	bytes := opts.CacheBytes
	if bytes < 0 {
		bytes = 0
	}
	return &Service{
		sem:      make(chan struct{}, workers),
		store:    opts.Store,
		verify:   opts.Verify,
		onSolved: opts.OnSolved,
		cache:    newLRUCache(entries, bytes),
		inflight: make(map[string]*memoEntry),
		methods:  make(map[string]*methodMetrics),
	}
}

// Solve solves one problem through the worker pool. Identical problems
// (by canonical hash) share one solve: concurrent duplicates wait for
// the leader, and later duplicates are served from the cache — or the
// persistent store, surviving restarts — with Solution.Cached set.
// Problems with an in-memory Lib override have no canonical hash and
// are solved directly, without caching.
func (s *Service) Solve(ctx context.Context, p Problem) (Solution, error) {
	key, _ := p.Hash() // "" when p has no canonical hash
	return s.SolveKeyed(ctx, key, p)
}

// SolveKeyed is Solve for a caller that already holds key = p.Hash(),
// so a request hashed once at its edge is not hashed again here. An
// empty key solves p directly, without caching. The key is trusted:
// the solution is cached and stored under it, so a key that is not
// p's canonical hash poisons the entry for the problem it does name.
func (s *Service) SolveKeyed(ctx context.Context, key string, p Problem) (Solution, error) {
	if key == "" {
		return s.solveOne(ctx, p)
	}

	var e *memoEntry
	for e == nil {
		s.mu.Lock()
		if hit, ok := s.hitLocked(key); ok {
			s.mu.Unlock()
			sol := hit.sol
			sol.Cached = true
			return sol, nil
		}
		prior, ok := s.inflight[key]
		if !ok {
			e = &memoEntry{done: make(chan struct{})}
			s.inflight[key] = e
			s.stats.Misses++
			s.mu.Unlock()
			break // this call is the leader
		}
		s.mu.Unlock()
		select {
		case <-prior.done:
			if prior.err == nil {
				s.mu.Lock()
				s.stats.Hits++
				s.mu.Unlock()
				sol := prior.sol
				sol.Cached = true
				return sol, nil
			}
			// The leader failed and its entry is gone. Its cancellation
			// or deadline is not ours: with a live context, take over as
			// the next leader instead of surfacing a stranger's ctx.Err.
			if errors.Is(prior.err, context.Canceled) || errors.Is(prior.err, context.DeadlineExceeded) {
				if ctx.Err() != nil {
					return Solution{}, ctx.Err()
				}
				continue
			}
			return Solution{}, prior.err
		case <-ctx.Done():
			return Solution{}, ctx.Err()
		}
	}

	// Leader path. Consult the persistent store first — only the leader
	// touches disk, so concurrent duplicates cost one read, not N.
	if s.store != nil {
		sol, ok := s.store.Get(key)
		if ok && s.verify {
			if verr := Verify(p, sol); verr != nil {
				// Corrupted but parseable (e.g. a bit-flipped area):
				// demote to a miss so the solve below recomputes and the
				// write-through repairs the entry.
				s.mu.Lock()
				s.stats.VerifyFailures++
				s.mu.Unlock()
				ok = false
			}
		}
		if ok {
			sol.Cached = false
			s.finish(key, e, sol, nil, true)
			sol.Cached = true
			return sol, nil
		}
		s.mu.Lock()
		s.stats.StoreMisses++
		s.mu.Unlock()
	}

	sol, err := s.solveOne(ctx, p)
	s.finish(key, e, sol, err, false)
	if err == nil {
		if s.store != nil {
			if perr := s.store.Put(key, sol); perr != nil {
				// Persistence is best-effort: the answer is correct and
				// cached in memory; only restart warmth is lost.
				s.mu.Lock()
				s.stats.StorePutErrors++
				s.mu.Unlock()
			}
		}
		if s.onSolved != nil {
			s.onSolved(key, sol)
		}
	}
	return sol, err
}

// CacheHit serves key from the in-memory LRU exactly as a Solve cache
// hit does — it counts a hit and refreshes the entry's recency — and
// returns the hit twice over: the solution with Cached set, as Solve
// would return it, and the response body, the solution's compact JSON
// encoding with Cached set, newline-terminated, encoded once when the
// entry was cached. Both share the cached entry and must not be
// modified. A miss counts nothing, so a caller can fall back to
// SolveKeyed, which then counts the miss once.
func (s *Service) CacheHit(key string) (sol Solution, hit []byte, ok bool) {
	s.mu.Lock()
	e, ok := s.hitLocked(key)
	s.mu.Unlock()
	if !ok {
		return Solution{}, nil, false
	}
	sol = e.sol
	sol.Cached = true
	return sol, e.hit, true
}

// CopyHit is CacheHit for a key whose answer another replica owns,
// served here from a copy; p is the problem key names. Under
// ServiceOptions.Verify a copy Admit inserted is checked with Verify
// against p on its first hit, so later hits cost nothing. A copy that
// fails is dropped and counted in VerifyFailures, and CopyHit misses:
// the caller relays instead.
func (s *Service) CopyHit(key string, p Problem) (sol Solution, hit []byte, ok bool) {
	if s.verify {
		s.mu.Lock()
		e, ok := s.cache.peek(key)
		check := ok && e.unverified
		s.mu.Unlock()
		if check {
			err := Verify(p, e.sol)
			s.mu.Lock()
			if err != nil {
				// Concurrent first hits may all verify; one counts.
				if s.cache.remove(e) {
					s.stats.VerifyFailures++
				}
			} else {
				e.unverified = false
			}
			s.mu.Unlock()
			if err != nil {
				return Solution{}, nil, false
			}
		}
	}
	return s.CacheHit(key)
}

// hitLocked is the cache-hit step of SolveKeyed and CacheHit; s.mu must
// be held.
func (s *Service) hitLocked(key string) (*lruEntry, bool) {
	e, ok := s.cache.get(key)
	if ok {
		s.stats.Hits++
	}
	return e, ok
}

// Peek returns the cached or stored solution for a problem hash without
// running a solver or waiting on one — the serving half of cluster
// replication read-through. It does not count as a cache hit and does
// not refresh LRU recency: a peer fetching a copy is not local workload
// evidence.
func (s *Service) Peek(key string) (Solution, bool) {
	s.mu.Lock()
	e, ok := s.cache.peek(key)
	s.mu.Unlock()
	if ok {
		return e.sol, true
	}
	if s.store != nil {
		return s.store.Get(key)
	}
	return Solution{}, false
}

// Admit inserts an externally computed solution under its problem hash —
// the receiving half of cluster replication. The solution enters the
// in-memory LRU and, when configured, the persistent store, exactly as
// if this Service's own solver had produced it. Admit checks neither the
// key nor the solution: it trusts its caller as SolveKeyed trusts its
// key, so only trusted peers may reach it. Under ServiceOptions.Verify,
// CopyHit verifies the entry on its first hit.
func (s *Service) Admit(key string, sol Solution) {
	sol.Cached = false
	if e, ok := newLRUEntry(key, sol); ok {
		e.unverified = true
		s.mu.Lock()
		s.cache.add(e)
		s.mu.Unlock()
	}
	if s.store != nil {
		if err := s.store.Put(key, sol); err != nil {
			s.mu.Lock()
			s.stats.StorePutErrors++
			s.mu.Unlock()
		}
	}
}

// Queued reports how many solves are blocked waiting for a worker-pool
// slot right now — the queue depth admission control sheds on.
func (s *Service) Queued() int { return int(s.queued.Load()) }

// finish publishes a leader's outcome: successful solutions enter the
// LRU (failures are not cached — a cancellation or deadline is the
// caller's, not the problem's), the in-flight entry is retired, and
// waiters are released.
func (s *Service) finish(key string, e *memoEntry, sol Solution, err error, fromStore bool) {
	e.sol, e.err = sol, err
	var entry *lruEntry
	if err == nil {
		// Encode the solution before taking the lock so a large
		// datapath cannot stall concurrent cache lookups.
		entry, _ = newLRUEntry(key, sol)
	}
	s.mu.Lock()
	delete(s.inflight, key)
	if entry != nil {
		s.cache.add(entry)
	}
	if fromStore {
		s.stats.StoreHits++
	}
	s.mu.Unlock()
	close(e.done)
}

// solveOne runs one solve inside a worker-pool slot and records the
// per-method metrics.
func (s *Service) solveOne(ctx context.Context, p Problem) (Solution, error) {
	s.queued.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.queued.Add(-1)
		return Solution{}, ctx.Err()
	}
	t0 := time.Now()
	sol, err := Solve(ctx, p)
	if err == nil && s.verify {
		if verr := Verify(p, sol); verr != nil {
			// A solver handing back an illegal or misreported datapath is
			// an internal inconsistency; surface the diagnostic rather
			// than caching or serving the bad answer.
			s.mu.Lock()
			s.stats.VerifyFailures++
			s.mu.Unlock()
			sol, err = Solution{}, verr
		}
	}
	s.record(metricLabel(p.method()), time.Since(t0), err)
	return sol, err
}

// metricLabel folds client-supplied method names that are not in the
// registry into one label, so a stream of bogus names cannot grow the
// per-method metrics map (or the /metrics payload) without bound.
func metricLabel(method string) string {
	if _, ok := Lookup(method); !ok {
		return "unknown"
	}
	return method
}

// BatchResult is one outcome of SolveBatch; exactly one of Solution
// being valid (Err == nil) or Err holds.
type BatchResult struct {
	Solution Solution
	Err      error
}

// SolveBatch solves every problem, running up to the Service's worker
// count concurrently, and returns the outcomes in input order. Identical
// problems within (or across) batches solve once and share the result.
func (s *Service) SolveBatch(ctx context.Context, problems []Problem) []BatchResult {
	out := make([]BatchResult, len(problems))
	s.SolveBatchFunc(ctx, problems, func(i int, r BatchResult) { out[i] = r })
	return out
}

// SolveBatchFunc solves every problem through the worker pool, invoking
// fn once per problem as each completes — completion order, not input
// order, which is what a streaming endpoint wants. Calls to fn are
// serialized, so fn may write to a shared sink without locking. The
// fan-out is bounded: at most the Service's worker count of batch
// goroutines exist at once, regardless of len(problems), and once ctx is
// canceled no further solves start — every remaining problem is reported
// to fn with ctx.Err(). Returns ctx.Err() (nil if the batch ran to
// completion).
func (s *Service) SolveBatchFunc(ctx context.Context, problems []Problem, fn func(i int, r BatchResult)) error {
	return s.SolveBatchVia(ctx, problems, nil, fn)
}

// SolveBatchVia is SolveBatchFunc with the per-problem solve pluggable:
// each problem goes through solve instead of s.Solve (nil means
// s.Solve). cmd/mwld uses it to route non-owned problems to their shard
// owner while keeping the batch fan-out bounded by this Service's worker
// pool.
func (s *Service) SolveBatchVia(ctx context.Context, problems []Problem, solve func(context.Context, Problem) (Solution, error), fn func(i int, r BatchResult)) error {
	if solve == nil {
		solve = s.Solve
	}
	n := len(problems)
	workers := cap(s.sem)
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	emit := func(i int, r BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		fn(i, r)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// Checked per problem, not per worker: a cancellation
				// mid-batch drains the remaining indices without starting
				// their solves.
				if err := ctx.Err(); err != nil {
					emit(i, BatchResult{Err: err})
					continue
				}
				sol, err := solve(ctx, problems[i])
				emit(i, BatchResult{Solution: sol, Err: err})
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// CacheSize reports how many solutions the cache currently holds
// (including in-flight entries).
func (s *Service) CacheSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len() + len(s.inflight)
}

// CacheStats snapshots the cache and store counters. In-flight solves
// are counted but never evicted, so duplicates can always join a
// running solve even when the LRU is thrashing.
func (s *Service) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.cache.len()
	st.Bytes = s.cache.bytes
	st.InFlight = len(s.inflight)
	st.Evictions = s.cache.evictions
	return st
}

// ClearCache drops every cached solution (the persistent store, if any,
// is untouched). In-flight solves complete normally but are forgotten.
func (s *Service) ClearCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.clear()
}

// ---- per-method metrics ----

// latencyBucketBounds are the upper bounds of the solve-latency
// histogram, chosen to straddle the paper's regimes: DPAlloc answers in
// milliseconds, ILP solves run to minutes (Table 2).
var latencyBucketBounds = []time.Duration{
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	2500 * time.Millisecond,
	10 * time.Second,
	time.Minute,
	5 * time.Minute,
}

// methodMetrics accumulates one method's counters; guarded by Service.mu.
type methodMetrics struct {
	solves  uint64 // solver runs (cache hits are not solves)
	errors  uint64 // failed runs, cancellations included
	sum     time.Duration
	buckets []uint64 // per-bucket counts; len(latencyBucketBounds)+1, last is +Inf
}

func (s *Service) record(method string, d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.methods[method]
	if m == nil {
		m = &methodMetrics{buckets: make([]uint64, len(latencyBucketBounds)+1)}
		s.methods[method] = m
	}
	m.solves++
	if err != nil {
		m.errors++
	}
	m.sum += d
	i := 0
	for i < len(latencyBucketBounds) && d > latencyBucketBounds[i] {
		i++
	}
	m.buckets[i]++
}

// MethodMetrics is one method's solve counters in a Metrics snapshot.
type MethodMetrics struct {
	Method string `json:"method"`
	// Solves counts solver runs; cache and store hits do not run the
	// solver and are visible in CacheStats instead.
	Solves uint64 `json:"solves"`
	// Errors counts failed runs, including cancellations.
	Errors uint64 `json:"errors"`
	// LatencySum is the total wall clock across runs; with Solves it
	// yields the mean, with Buckets the distribution.
	LatencySum time.Duration `json:"latency_sum_ns"`
	// Buckets holds cumulative counts: Buckets[i] is the number of runs
	// with latency <= LatencyBucketBounds()[i]; the final element (no
	// bound) counts every run (+Inf).
	Buckets []uint64 `json:"buckets"`
}

// Metrics is a point-in-time snapshot of a Service's observability
// counters, renderable as Prometheus text (see cmd/mwld's /metrics).
type Metrics struct {
	Methods []MethodMetrics `json:"methods"`
	Cache   CacheStats      `json:"cache"`
	// Workers is the pool size; WorkersBusy the occupied slots now.
	Workers     int `json:"workers"`
	WorkersBusy int `json:"workers_busy"`
	// Queued counts solves waiting for a worker slot right now.
	Queued int `json:"queued"`
}

// LatencyBucketBounds reports the histogram bucket upper bounds used by
// Metrics, smallest first; the implicit final bucket is +Inf.
func LatencyBucketBounds() []time.Duration {
	out := make([]time.Duration, len(latencyBucketBounds))
	copy(out, latencyBucketBounds)
	return out
}

// Metrics snapshots the per-method solve counters, cache stats and
// worker-pool occupancy.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Metrics{
		Workers:     cap(s.sem),
		WorkersBusy: len(s.sem),
		Queued:      int(s.queued.Load()),
	}
	out.Cache = s.stats
	out.Cache.Entries = s.cache.len()
	out.Cache.Bytes = s.cache.bytes
	out.Cache.InFlight = len(s.inflight)
	out.Cache.Evictions = s.cache.evictions
	names := make([]string, 0, len(s.methods))
	for name := range s.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.methods[name]
		buckets := make([]uint64, len(m.buckets))
		var cum uint64
		for i, c := range m.buckets {
			cum += c
			buckets[i] = cum
		}
		out.Methods = append(out.Methods, MethodMetrics{
			Method:     name,
			Solves:     m.solves,
			Errors:     m.errors,
			LatencySum: m.sum,
			Buckets:    buckets,
		})
	}
	return out
}

package mwl

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
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
	// An entry the Service produced or loaded itself is not re-verified
	// on a cache hit. A copy Admit inserts (cluster replication) is:
	// before it is inserted when the caller holds its problem, otherwise
	// on its first Hit, whichever path serves it — so no copy is served
	// that has not passed Verify against the request's problem.
	Verify bool
	// OnSolved, when non-nil, is called after every fresh successful
	// solve (cache hits, store hits and failures excluded) with the
	// problem's canonical hash, its solution and the solution's encoding
	// as the new cache entry holds it: Service.Hit's response bytes,
	// shared with the entry and not to be modified. cmd/mwld uses it as
	// the write-through hook of cluster replication, sending those bytes
	// as they are; the callback runs on the solving goroutine, so
	// implementations that do I/O should hand the work off rather than
	// block the solve.
	OnSolved func(key string, sol Solution, hit []byte)
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
	onSolved func(key string, sol Solution, hit []byte)

	queued atomic.Int64 // solves waiting for a worker slot right now

	mu       sync.Mutex
	cache    *lruCache             // completed solutions, bounded
	inflight map[string]*memoEntry // running solves, never evicted

	stats CacheStats // counter fields only; gauges derived on demand

	// Per-method solver runs, failed runs and latency.
	solves, errs metrics.Counter
	latency      *metrics.Histogram
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
		latency:  metrics.NewHistogram(latencyBuckets...),
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
		if sol, _, ok := s.Hit(key, &p); ok {
			return sol, nil
		}
		s.mu.Lock()
		if _, ok := s.cache.peek(key); ok {
			// Cached since Hit looked, by a leader that finished or a
			// peer's copy: serve it rather than solve again.
			s.mu.Unlock()
			continue
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
	hit := s.finish(key, e, sol, err, false)
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
			s.onSolved(key, sol, hit)
		}
	}
	return sol, err
}

// Hit serves key from the in-memory LRU — the one way any caller,
// SolveKeyed included, is answered from a held entry. A hit counts a
// cache hit and refreshes the entry's recency, and returns the entry
// twice over: the solution with Cached set, as Solve would return it,
// and the response body, the solution's compact JSON encoding with
// Cached set, newline-terminated, encoded once when the entry was
// cached. Both share the entry and must not be modified. A miss counts
// nothing, so a caller can fall back to SolveKeyed, which then counts
// the miss once.
//
// p is the problem key names, or nil when the caller has not decoded
// it. Under ServiceOptions.Verify an entry Admit inserted without a
// problem is checked with Verify against p on its first hit, so later
// hits cost nothing; the entry served is the entry checked. One that
// fails is dropped and counted in VerifyFailures, and with p nil such
// an entry is not checked and misses.
func (s *Service) Hit(key string, p *Problem) (sol Solution, hit []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		e, ok := s.cache.peek(key)
		if !ok || (e.unverified && p == nil) {
			return Solution{}, nil, false
		}
		if e.unverified {
			s.mu.Unlock()
			err := Verify(*p, e.sol)
			s.mu.Lock()
			if err != nil {
				// Concurrent first hits may all verify; one counts. The
				// key may hold another entry by now: look again.
				if s.cache.remove(e) {
					s.stats.VerifyFailures++
				}
				continue
			}
			e.unverified = false
		}
		s.cache.touch(e)
		s.stats.Hits++
		sol = e.sol
		sol.Cached = true
		return sol, e.hit, true
	}
}

// Peek returns the cached or stored solution for a problem hash without
// running a solver or waiting on one — the serving half of cluster
// replication read-through. It does not count as a cache hit, does not
// refresh LRU recency, and does not verify: a peer fetching a copy is
// not local workload evidence, and checks the copy against its own
// problem when it admits it.
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

// Admit inserts an externally computed solution under its problem hash:
// a peer's copy, into the in-memory LRU and, when configured, the
// persistent store, exactly as if this Service's own solver had
// produced it. Admit checks neither the key nor, with p nil, the
// solution: it trusts its caller as SolveKeyed trusts its key, so only
// trusted peers may reach it. p is the problem key names when the
// caller holds it — a replica that fetched the copy to answer p. Under
// ServiceOptions.Verify a copy with p is checked against it first, and
// one that fails is counted in VerifyFailures and not admitted, and
// Admit reports false; a copy without p is checked on its first Hit.
func (s *Service) Admit(key string, sol Solution, p *Problem) bool {
	if s.verify && p != nil && Verify(*p, sol) != nil {
		s.mu.Lock()
		s.stats.VerifyFailures++
		s.mu.Unlock()
		return false
	}
	sol.Cached = false
	e := newLRUEntry(key, sol)
	e.unverified = s.verify && p == nil
	s.mu.Lock()
	s.cache.add(e)
	s.mu.Unlock()
	if s.store != nil {
		if err := s.store.Put(key, sol); err != nil {
			s.mu.Lock()
			s.stats.StorePutErrors++
			s.mu.Unlock()
		}
	}
	return true
}

// Queued reports how many solves are blocked waiting for a worker-pool
// slot right now — the queue depth admission control sheds on.
func (s *Service) Queued() int { return int(s.queued.Load()) }

// finish publishes a leader's outcome: successful solutions enter the
// LRU (failures are not cached — a cancellation or deadline is the
// caller's, not the problem's), the in-flight entry is retired, and
// waiters are released. It returns the new entry's hit bytes, nil on
// failure.
func (s *Service) finish(key string, e *memoEntry, sol Solution, err error, fromStore bool) (hit []byte) {
	e.sol, e.err = sol, err
	var entry *lruEntry
	if err == nil {
		// Encode the solution before taking the lock so a large
		// datapath cannot stall concurrent cache lookups.
		entry = newLRUEntry(key, sol)
		hit = entry.hit
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
	return hit
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
	// Hit, when set, is Solution's response encoding held by the cache
	// entry that answered (Service.Hit's bytes): AppendBatchResponse
	// and AppendStreamRecord splice it instead of encoding Solution.
	Hit []byte
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
// pool, and to hand on the hit bytes of the entries that answer.
func (s *Service) SolveBatchVia(ctx context.Context, problems []Problem, solve func(context.Context, Problem) BatchResult, fn func(i int, r BatchResult)) error {
	if solve == nil {
		solve = func(ctx context.Context, p Problem) BatchResult {
			sol, err := s.Solve(ctx, p)
			return BatchResult{Solution: sol, Err: err}
		}
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
				emit(i, solve(ctx, problems[i]))
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

// ---- metrics ----

// latencyBuckets are the upper bounds in seconds of the solve-latency
// histogram, chosen to straddle the paper's regimes: DPAlloc answers in
// milliseconds, ILP solves run to minutes (Table 2).
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

// record counts one solver run of method. Every method run shows an
// error count, zero included.
func (s *Service) record(method string, d time.Duration, err error) {
	var failed uint64
	if err != nil {
		failed = 1
	}
	s.solves.Add(method, 1)
	s.errs.Add(method, failed)
	s.latency.Observe(method, d.Seconds())
}

// RegisterMetrics registers the Service's families on r: per-method
// solve counts, errors and latency, the cache and store counters,
// process-wide portfolio wins, and the cache and worker-pool gauges.
func (s *Service) RegisterMetrics(r *metrics.Registry) {
	r.Counter("mwld_solves_total", "Solver runs by method (cache hits excluded).", "method", &s.solves)
	r.Counter("mwld_solve_errors_total", "Failed solver runs by method, cancellations included.", "method", &s.errs)
	r.Histogram("mwld_solve_duration_seconds", "Solve wall-clock latency by method.", "method", s.latency)
	r.CounterFunc("mwld_cache_hits_total", "Solves served from the in-memory cache or by joining an in-flight duplicate.", func() uint64 { return s.CacheStats().Hits })
	r.CounterFunc("mwld_cache_misses_total", "Solves that appointed a leader (ran the solver or hit the store).", func() uint64 { return s.CacheStats().Misses })
	r.CounterFunc("mwld_cache_evictions_total", "LRU entries dropped to enforce the entry/byte caps.", func() uint64 { return s.CacheStats().Evictions })
	r.CounterFunc("mwld_store_hits_total", "Persistent-store hits on cache misses.", func() uint64 { return s.CacheStats().StoreHits })
	r.CounterFunc("mwld_store_misses_total", "Persistent-store misses on cache misses.", func() uint64 { return s.CacheStats().StoreMisses })
	r.CounterFunc("mwld_store_put_errors_total", "Failed persistent-store write-throughs (best-effort).", func() uint64 { return s.CacheStats().StorePutErrors })
	r.CounterFunc("mwld_verify_failures_total", "Solutions rejected by mwl.Verify (corrupted store entries and misbehaving solvers).", func() uint64 { return s.CacheStats().VerifyFailures })
	r.Counter("mwld_portfolio_wins_total", "Portfolio race wins by method.", "method", &portfolioWins)
	r.GaugeFunc("mwld_cache_entries", "Solutions held in the in-memory LRU.", func() int64 { return int64(s.CacheStats().Entries) })
	r.GaugeFunc("mwld_cache_bytes", "Approximate in-memory LRU footprint in bytes.", func() int64 { return s.CacheStats().Bytes })
	r.GaugeFunc("mwld_inflight_solves", "Solves currently running or joinable by duplicates.", func() int64 { return int64(s.CacheStats().InFlight) })
	r.GaugeFunc("mwld_workers", "Worker-pool size.", func() int64 { return int64(cap(s.sem)) })
	r.GaugeFunc("mwld_workers_busy", "Worker-pool slots occupied right now.", func() int64 { return int64(len(s.sem)) })
	r.GaugeFunc("mwld_queue_depth", "Solves waiting for a worker slot right now.", s.queued.Load)
}

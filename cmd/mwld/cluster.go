package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	mwl "repro"
	"repro/internal/shard"
)

// forwardedHeader marks a request relayed by a peer replica. A replica
// receiving it always solves locally: if peer lists ever disagree, a
// problem is answered by whichever replica the forward landed on rather
// than bouncing between replicas that each believe the other owns it.
const forwardedHeader = "X-Mwld-Forwarded"

// keyHeader carries a relayed problem's canonical hash next to
// forwardedHeader, so the owner need not hash the body again — and can
// answer a cache hit without decoding it. Any client can set it, so it
// is trusted to read, never to store: the owner serves a cached entry
// under it (the same read GET /internal/v1/solution/{key} offers), but
// on a miss it hashes the decoded problem and rejects a mismatch before
// anything is solved or cached under the key.
const keyHeader = "X-Mwld-Key"

// defaultRelayLimit caps how much of an owner's response body the
// forwarder will buffer before classifying the relay as failed.
const defaultRelayLimit = 64 << 20

// cluster is mwld's horizontal scale-out mode: problems are owned by
// exactly one replica — rendezvous hashing of Problem.Hash() over the
// shared peer list — so each problem is computed (and cached, and
// persisted) once cluster-wide. The owner solves locally; every other
// replica answers from its cache when it holds a copy (copyHit), and
// otherwise proxies the solve to the first live replica in the key's
// rank order and relays the result, falling back to a local solve
// (preceded by a read-through of the ranked replicas' stores) when no
// owner is reachable.
type cluster struct {
	ring   *shard.Ring
	self   string
	client *http.Client

	health *healthChecker // nil = no active health checking: all peers assumed up
	rep    *replicator    // nil = no write-through replication

	relayLimit   int64         // max owner response bytes a forwarder buffers
	fetchTimeout time.Duration // per-peer budget of a replication read-through

	// Counters surfaced on /metrics.
	owned       atomic.Uint64 // requests solved locally as the key's owner
	forwarded   atomic.Uint64 // requests proxied to their owner
	fallback    atomic.Uint64 // owner unreachable: solved locally instead
	rerouted    atomic.Uint64 // requests routed past a down owner without burning a timeout
	copyHits    atomic.Uint64 // requests another replica answers, served from a copy held here
	relayErrors atomic.Uint64 // relays that died mid-body after the status line
	readHits    atomic.Uint64 // fallback solves served from a ranked peer's store
	readMisses  atomic.Uint64 // fallback read-throughs that found no copy and recomputed
}

// newCluster validates the peer list and returns the routing state, or
// nil when peers is empty (single-replica mode).
func newCluster(peers, self string) (*cluster, error) {
	if strings.TrimSpace(peers) == "" {
		if strings.TrimSpace(self) != "" {
			return nil, errors.New("-self given without -peers")
		}
		return nil, nil
	}
	list := strings.Split(peers, ",")
	seen := make(map[string]bool, len(list))
	for i, p := range list {
		list[i] = normalizeAddr(p)
		if list[i] == "" {
			continue
		}
		// Rejecting duplicates here (rather than silently deduplicating
		// like shard.New) catches the config error that matters: the
		// same host listed twice, usually via case or scheme variants,
		// which would silently shrink the cluster one replica below
		// what the operator believes is running.
		if seen[list[i]] {
			return nil, fmt.Errorf("-peers: duplicate replica %q after normalization", list[i])
		}
		seen[list[i]] = true
	}
	ring, err := shard.New(list)
	if err != nil {
		return nil, fmt.Errorf("-peers: %w", err)
	}
	self = normalizeAddr(self)
	if self == "" {
		return nil, errors.New("-peers requires -self (this replica's address as it appears in -peers)")
	}
	if !ring.Contains(self) {
		return nil, fmt.Errorf("-self %q is not in -peers %v", self, ring.Replicas())
	}
	return &cluster{
		ring:         ring,
		self:         self,
		relayLimit:   defaultRelayLimit,
		fetchTimeout: 2 * time.Second,
		client: &http.Client{
			// Connections to a dead peer must fail fast enough for the
			// local fallback to still answer within the client's patience;
			// the solve itself is governed by the request context.
			Transport: &http.Transport{
				MaxIdleConnsPerHost:   4,
				IdleConnTimeout:       2 * time.Minute,
				ResponseHeaderTimeout: 0,
			},
		},
	}, nil
}

// normalizeAddr trims a peer address, defaults the scheme to http, and
// lowercases the scheme and host — so "-peers host1:8080,host2:8080"
// works as written, and "Host1:8080" on one replica and "host1:8080" on
// another rendezvous-hash to the same owner instead of silently
// splitting every key's ownership across the cluster.
func normalizeAddr(a string) string {
	a = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(a), "/"))
	if a == "" {
		return ""
	}
	if !strings.Contains(a, "://") {
		a = "http://" + a
	}
	scheme, rest, _ := strings.Cut(a, "://")
	host, path, hasPath := strings.Cut(rest, "/")
	a = strings.ToLower(scheme) + "://" + strings.ToLower(host)
	if hasPath {
		a += "/" + path
	}
	return a
}

// owner returns the replica owning key, or "" when the problem has no
// canonical hash (key "", so no owner — it is solved wherever it lands).
func (c *cluster) owner(key string) string {
	if key == "" {
		return ""
	}
	return c.ring.Owner(key)
}

// alive reports whether a replica is believed reachable. Without a
// health checker every peer is assumed up, which reproduces the static
// relay-or-fallback behaviour; self is up by definition.
func (c *cluster) alive(addr string) bool {
	return addr == c.self || c.health == nil || c.health.up(addr)
}

// target returns the replica that should answer key right now: the
// first live replica in the key's rank order — the true owner when it is
// up, otherwise the deterministic failover target — or "" when the
// problem has no canonical hash. Self always qualifies, so a fully
// partitioned replica degrades to solving everything locally.
func (c *cluster) target(key string) string {
	if key == "" {
		return ""
	}
	return c.ring.First(key, c.alive)
}

// routeCounters records the owned/fallback/rerouted counter movement of
// one routed request that is about to be answered locally.
func (c *cluster) routeCounters(target, trueOwner string) {
	if trueOwner != "" && target != trueOwner {
		c.rerouted.Add(1)
	}
	if target == c.self {
		if trueOwner == c.self {
			c.owned.Add(1)
		} else {
			c.fallback.Add(1)
		}
	}
}

// serveLocal answers p, whose canonical hash is key, on this replica.
// When this replica is not the problem's true owner (it is acting for a
// down owner, or a forward landed here), the ranked replicas' stores are
// read through before any local compute: first the local cache/store,
// then the live peers in rank order via the internal fetch endpoint — so
// a replica dying does not trigger a recomputation storm for the keys it
// already solved and replicated.
func (c *cluster) serveLocal(ctx context.Context, svc *mwl.Service, key string, p mwl.Problem) (mwl.Solution, error) {
	if trueOwner := c.owner(key); trueOwner != "" && trueOwner != c.self {
		if sol, ok := svc.Peek(key); ok {
			sol.Cached = true
			return sol, nil
		}
		if sol, ok := c.readThrough(ctx, key); ok {
			c.readHits.Add(1)
			svc.Admit(key, sol)
			sol.Cached = true
			return sol, nil
		}
		c.readMisses.Add(1)
	}
	return svc.SolveKeyed(ctx, key, p)
}

// readThrough asks every live ranked peer, owner-first, for its stored
// copy of key. The first hit wins; transport failures and 404s just
// move on to the next candidate.
func (c *cluster) readThrough(ctx context.Context, key string) (mwl.Solution, bool) {
	for _, addr := range c.ring.Rank(key) {
		if addr == c.self || !c.alive(addr) {
			continue
		}
		if sol, ok := c.fetch(ctx, addr, key); ok {
			return sol, true
		}
		if ctx.Err() != nil {
			break
		}
	}
	return mwl.Solution{}, false
}

// fetch retrieves one peer's stored solution for key via the internal
// fetch endpoint, bounded by fetchTimeout so a slow peer cannot stall
// the fallback path it exists to accelerate.
func (c *cluster) fetch(ctx context.Context, addr, key string) (mwl.Solution, bool) {
	fctx, cancel := context.WithTimeout(ctx, c.fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, "GET", addr+"/internal/v1/solution/"+key, nil)
	if err != nil {
		return mwl.Solution{}, false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.observeFailure(addr)
		return mwl.Solution{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return mwl.Solution{}, false
	}
	var sol mwl.Solution
	if err := json.NewDecoder(io.LimitReader(resp.Body, c.relayLimit)).Decode(&sol); err != nil || sol.Datapath == nil {
		return mwl.Solution{}, false
	}
	return sol, true
}

// observeFailure feeds a transport failure seen on the request path into
// the health state, so a peer that died between probes is marked down by
// the traffic that discovers it rather than only by the next probe.
func (c *cluster) observeFailure(addr string) {
	if c.health != nil {
		c.health.observe(addr, false)
	}
}

// keyedSolve answers one problem whose canonical hash the caller
// already computed.
type keyedSolve func(ctx context.Context, key string, p mwl.Problem) (mwl.Solution, error)

// solver returns the per-problem solve function for batch endpoints:
// problems are answered by the first live ranked replica — locally when
// that is us, otherwise from a copy held here or forwarded with a
// read-through-then-recompute fallback. SolveBatchVia bounds the
// fan-out either way.
func (c *cluster) solver(svc *mwl.Service) keyedSolve {
	return func(ctx context.Context, key string, p mwl.Problem) (mwl.Solution, error) {
		trueOwner := c.owner(key)
		target := c.target(key)
		if target == "" || target == c.self {
			c.routeCounters(target, trueOwner)
			return c.serveLocal(ctx, svc, key, p)
		}
		if sol, _, ok := c.copyHit(svc, key, p); ok {
			return sol, nil
		}
		if target != trueOwner {
			c.rerouted.Add(1)
		}
		sol, err, relayed := c.forwardSolve(ctx, target, key, p)
		if relayed {
			c.forwarded.Add(1)
			return sol, err
		}
		if ctx.Err() != nil {
			return mwl.Solution{}, ctx.Err()
		}
		c.fallback.Add(1)
		return c.serveLocal(ctx, svc, key, p)
	}
}

// copyHit answers key, which another replica answers, from this
// replica's cache: the copy replication put there, or the answer an
// earlier fallback solve cached. Cache entries are immutable and keyed
// by the problem's content hash, so the copy is the answer the other
// replica would relay — at the price of a cache lookup instead of a
// round trip. It counts a Service cache hit and a copy hit, and none of
// the routing counters: no routing happened. Under -verify a copy is
// verified against p on its first hit (Service.CopyHit), and one that
// fails misses.
func (c *cluster) copyHit(svc *mwl.Service, key string, p mwl.Problem) (sol mwl.Solution, hit []byte, ok bool) {
	sol, hit, ok = svc.CopyHit(key, p)
	if ok {
		c.copyHits.Add(1)
	}
	return sol, hit, ok
}

// localSolver is the batch solve function for requests a peer already
// forwarded here: never forwarded onward, but still read-through-aware,
// so a forward that lands on a non-owner (the owner died) serves the
// replicated copy instead of recomputing.
func (c *cluster) localSolver(svc *mwl.Service) keyedSolve {
	return func(ctx context.Context, key string, p mwl.Problem) (mwl.Solution, error) {
		return c.serveLocal(ctx, svc, key, p)
	}
}

// unavailableStatus reports whether an HTTP status from a peer means
// "cannot serve right now" rather than a verdict on the problem: 499 is
// a replica draining for shutdown, 503/429 a replica shedding load.
// Falling back keeps those conditions invisible to clients.
func unavailableStatus(code int) bool {
	return code == 499 || code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// forwardSolve proxies one problem, with its canonical hash key, to
// target's /v1/solve. relayed reports whether the target answered
// usefully: a transport failure (connection refused, mid-restart,
// truncated response) or an unavailable status (draining, shedding)
// returns relayed=false and the caller solves locally; any other
// HTTP-level answer — success or error — is the target's verdict and is
// returned as-is.
func (c *cluster) forwardSolve(ctx context.Context, target, key string, p mwl.Problem) (sol mwl.Solution, err error, relayed bool) {
	blob, err := json.Marshal(p)
	if err != nil {
		return mwl.Solution{}, err, false
	}
	req, err := http.NewRequestWithContext(ctx, "POST", target+"/v1/solve", bytes.NewReader(blob))
	if err != nil {
		return mwl.Solution{}, err, false
	}
	setRelayHeaders(req, c.self, key)
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.observeFailure(target)
		}
		return mwl.Solution{}, err, false
	}
	defer resp.Body.Close()
	// Read one byte past the relay limit: a body that reaches it was
	// truncated, and decoding a truncated solution would surface as a
	// confusing JSON error instead of engaging the fallback path.
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.relayLimit+1))
	if err != nil {
		return mwl.Solution{}, err, false
	}
	if int64(len(body)) > c.relayLimit {
		return mwl.Solution{}, fmt.Errorf("owner %s: response exceeds the %d-byte relay limit", target, c.relayLimit), false
	}
	if unavailableStatus(resp.StatusCode) && ctx.Err() == nil {
		return mwl.Solution{}, fmt.Errorf("owner %s unavailable (status %d)", target, resp.StatusCode), false
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		infeasible := resp.StatusCode == http.StatusUnprocessableEntity
		if !infeasible {
			msg = fmt.Sprintf("owner %s: %s", target, msg)
		}
		// FromWire keeps the relayed classification: infeasible verdicts
		// wrap mwl.ErrInfeasible and survive re-Wire()ing in a batch.
		rec := mwl.BatchResultWire{Error: msg, Infeasible: infeasible}
		return mwl.Solution{}, rec.FromWire().Err, true
	}
	if err := json.Unmarshal(body, &sol); err != nil {
		return mwl.Solution{}, fmt.Errorf("owner %s: decoding solution: %w", target, err), false
	}
	return sol, nil, true
}

// setRelayHeaders marks a relayed single solve: JSON, forwarded by self,
// carrying the problem's canonical hash key.
func setRelayHeaders(req *http.Request, self, key string) {
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, self)
	req.Header.Set(keyHeader, key)
}

// relay proxies a single-solve request body, with its canonical hash
// key, to target and copies the response — status, headers that matter,
// body — back to the client verbatim, counting it as forwarded. Returns
// false when the target is unreachable, draining or shedding, in which
// case nothing has been written and the caller falls back to a local
// solve. A requesting client that disconnected mid-relay is answered 499
// without touching the forwarded counter: nothing reached anyone.
func (c *cluster) relay(w http.ResponseWriter, r *http.Request, target, key string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), "POST", target+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return false
	}
	setRelayHeaders(req, c.self, key)
	resp, err := c.client.Do(req)
	if err != nil {
		// The client going away is not the owner's fault; don't burn a
		// local solve on a dead request.
		if r.Context().Err() != nil {
			writeError(w, 499, r.Context().Err())
			return true
		}
		c.observeFailure(target)
		return false
	}
	defer resp.Body.Close()
	// An owner that cannot serve right now — draining for shutdown (499
	// with our client still connected) or shedding load (503/429) — is
	// unavailable, not a verdict: fall back to a local solve rather than
	// relaying an error the client never caused.
	if unavailableStatus(resp.StatusCode) && r.Context().Err() == nil {
		return false
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The status line is already on the wire, so this relay must
		// count as forwarded either way — but a copy that died mid-body
		// handed the client a truncated response indistinguishable from
		// success unless it is made visible here.
		c.relayErrors.Add(1)
		log.Printf("relay from %s died mid-body: %v", target, err)
	}
	c.forwarded.Add(1)
	return true
}

// writeShardMetrics appends the cluster routing counters to the
// Prometheus exposition.
func (c *cluster) writeShardMetrics(w io.Writer) {
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"mwld_shard_owned_total", "Solve requests handled locally because this replica owns the problem hash.", c.owned.Load()},
		{"mwld_shard_forwarded_total", "Solve requests proxied to the owning replica.", c.forwarded.Load()},
		{"mwld_shard_fallback_total", "Solve requests answered locally because the owning replica was unreachable.", c.fallback.Load()},
		{"mwld_shard_rerouted_total", "Solve requests routed past a down owner to the next ranked replica before burning a connection timeout.", c.rerouted.Load()},
		{"mwld_shard_copy_hits_total", "Solve requests another replica owns, answered from a copy in this replica's cache instead of relayed.", c.copyHits.Load()},
		{"mwld_shard_relay_errors_total", "Relays that failed after the status line was written, handing the client a truncated response.", c.relayErrors.Load()},
		{"mwld_readthrough_hits_total", "Fallback solves served from a ranked peer's store instead of recomputing.", c.readHits.Load()},
		{"mwld_readthrough_misses_total", "Fallback read-throughs that found no replicated copy and recomputed locally.", c.readMisses.Load()},
	}
	for _, ct := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", ct.name, ct.help, ct.name, ct.name, ct.v)
	}
	fmt.Fprintf(w, "# HELP mwld_shard_replicas Replicas in the configured peer list.\n# TYPE mwld_shard_replicas gauge\nmwld_shard_replicas %d\n", c.ring.Len())
	if c.health != nil {
		c.health.writeMetrics(w)
	}
	if c.rep != nil {
		c.rep.writeMetrics(w)
	}
}

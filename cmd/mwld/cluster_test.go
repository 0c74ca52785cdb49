package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	mwl "repro"
)

// replica is one mwld instance of a test cluster, with its internals
// exposed so tests can assert who actually computed what.
type replica struct {
	url    string
	svc    *mwl.Service
	cl     *cluster
	srv    *httptest.Server
	hashes *atomic.Uint64 // request-path Problem.Hash calls on this replica
}

// startCluster brings up n replicas on real loopback listeners sharing
// one peer list, mirroring `mwld -peers ... -self ...`.
func startCluster(t testing.TB, n int) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := ""
	for i, u := range urls {
		if i > 0 {
			peers += ","
		}
		peers += u
	}
	out := make([]*replica, n)
	for i := range out {
		cl, err := newCluster(peers, urls[i])
		if err != nil {
			t.Fatal(err)
		}
		svc := mwl.NewService(2)
		hashes := new(atomic.Uint64)
		srv := httptest.NewUnstartedServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20, batchMax: 64, cluster: cl, hashes: hashes}))
		srv.Listener.Close()
		srv.Listener = lns[i]
		srv.Start()
		out[i] = &replica{url: urls[i], svc: svc, cl: cl, srv: srv, hashes: hashes}
		t.Cleanup(srv.Close)
	}
	return out
}

// splitByOwner returns (owner, other) for a problem's hash.
func splitByOwner(t testing.TB, reps []*replica, p mwl.Problem) (*replica, *replica) {
	t.Helper()
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	owner := reps[0].cl.ring.Owner(key)
	if o2 := reps[1].cl.ring.Owner(key); o2 != owner {
		t.Fatalf("replicas disagree on owner: %s vs %s", owner, o2)
	}
	if reps[0].url == owner {
		return reps[0], reps[1]
	}
	return reps[1], reps[0]
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestClusterForwardsToOwner: a solve posted to the non-owning replica
// is computed exactly once, on the owner — the peer relays the owner's
// answer rather than recomputing, and a later request to the owner is a
// cache hit on the same entry.
func TestClusterForwardsToOwner(t *testing.T) {
	reps := startCluster(t, 2)
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	owner, peer := splitByOwner(t, reps, p)
	blob := mustJSON(t, p)

	resp, err := http.Post(peer.url+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sol mwl.Solution
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatal(err)
	}
	if err := sol.Datapath.Verify(g, lib, p.Lambda); err != nil {
		t.Fatalf("relayed datapath illegal: %v", err)
	}

	// The owner computed it; the peer ran no solver at all.
	if got := owner.svc.CacheStats().Misses; got != 1 {
		t.Fatalf("owner ran %d solves, want 1", got)
	}
	if got := peer.svc.CacheStats(); got.Misses != 0 || got.Hits != 0 {
		t.Fatalf("peer touched its own service: %+v", got)
	}
	if got := peer.cl.forwarded.Load(); got != 1 {
		t.Fatalf("peer forwarded counter = %d, want 1", got)
	}
	if got := peer.cl.fallback.Load(); got != 0 {
		t.Fatalf("peer fallback counter = %d, want 0", got)
	}

	// The owner now serves the same problem from its cache: computed
	// exactly once cluster-wide.
	resp2, err := http.Post(owner.url+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var again mwl.Solution
	if err := json.NewDecoder(resp2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("owner recomputed a problem it had already solved for the peer")
	}
	if again.Area != sol.Area {
		t.Fatal("owner's answer differs from the relayed one")
	}
	if got := owner.svc.CacheStats().Misses; got != 1 {
		t.Fatalf("owner ran %d solves after the repeat, want still 1", got)
	}
	if got := owner.cl.owned.Load(); got != 1 {
		t.Fatalf("owner owned counter = %d, want 1 (the direct request)", got)
	}
}

// TestClusterFallsBackWhenOwnerDown: with the owner unreachable, the
// peer answers locally instead of failing the request, and counts the
// fallback.
func TestClusterFallsBackWhenOwnerDown(t *testing.T) {
	reps := startCluster(t, 2)
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 3}
	owner, peer := splitByOwner(t, reps, p)
	owner.srv.Close()

	resp, err := http.Post(peer.url+"/v1/solve", "application/json", bytes.NewReader(mustJSON(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with owner down, want 200 local fallback", resp.StatusCode)
	}
	var sol mwl.Solution
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatal(err)
	}
	if err := sol.Datapath.Verify(g, lib, p.Lambda); err != nil {
		t.Fatalf("fallback datapath illegal: %v", err)
	}
	if got := peer.cl.fallback.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	if got := peer.svc.CacheStats().Misses; got != 1 {
		t.Fatalf("peer ran %d local solves, want 1", got)
	}
}

// TestClusterBatchAndStreamRouting: batch and stream requests posted to
// one replica still shard per problem — each problem is computed once,
// on its owner, and the stream records reassemble to the full batch.
func TestClusterBatchAndStreamRouting(t *testing.T) {
	reps := startCluster(t, 2)
	lib := mwl.DefaultLibrary()
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Enough problems that with overwhelming probability both replicas
	// own at least one (checked below, not assumed).
	var problems []mwl.Problem
	for i := 0; i < 8; i++ {
		problems = append(problems, mwl.Problem{Graph: g, Lambda: lmin + 1 + i})
	}
	ownedBy := map[string]int{}
	for _, p := range problems {
		key, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		ownedBy[reps[0].cl.ring.Owner(key)]++
	}

	resp, err := http.Post(reps[0].url+"/v1/solve/stream", "application/json",
		bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: problems})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec mwl.StreamResultWire
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %q: %v", sc.Text(), err)
		}
		if seen[rec.Index] {
			t.Fatalf("index %d streamed twice", rec.Index)
		}
		seen[rec.Index] = true
		if rec.Error != "" || rec.Solution == nil {
			t.Fatalf("record %d: %+v", rec.Index, rec)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(problems) {
		t.Fatalf("streamed %d records for %d problems", len(seen), len(problems))
	}

	// Each replica computed exactly the problems it owns, once each.
	for _, rep := range reps {
		if got, want := int(rep.svc.CacheStats().Misses), ownedBy[rep.url]; got != want {
			t.Fatalf("replica %s ran %d solves, owns %d problems", rep.url, got, want)
		}
	}
	if ownedBy[reps[0].url] == 0 || ownedBy[reps[1].url] == 0 {
		t.Skipf("degenerate shard split %v; routing still verified for the owning side", ownedBy)
	}
	if got, want := int(reps[0].cl.forwarded.Load()), ownedBy[reps[1].url]; got != want {
		t.Fatalf("entry replica forwarded %d problems, want %d", got, want)
	}

	// The same batch through the non-streaming endpoint is now entirely
	// cache- or relay-served: no replica runs another solve.
	resp2, err := http.Post(reps[1].url+"/v1/solve/batch", "application/json",
		bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: problems})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out mwl.BatchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(problems) {
		t.Fatalf("%d batch results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Solution == nil {
			t.Fatalf("batch result %d: %+v", i, r)
		}
	}
	for _, rep := range reps {
		if got, want := int(rep.svc.CacheStats().Misses), ownedBy[rep.url]; got != want {
			t.Fatalf("replica %s recomputed: %d solves for %d owned problems", rep.url, got, want)
		}
	}
}

// TestClusterForwardedErrorKeepsClassification: an infeasible problem
// owned by the other replica must come back 422 through the relay, and
// a batch entry must keep its infeasible marker.
func TestClusterForwardedErrorKeepsClassification(t *testing.T) {
	reps := startCluster(t, 2)
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin - 1} // infeasible
	_, peer := splitByOwner(t, reps, p)

	resp, err := http.Post(peer.url+"/v1/solve", "application/json", bytes.NewReader(mustJSON(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("relayed infeasible solve: status %d, want 422", resp.StatusCode)
	}

	resp2, err := http.Post(peer.url+"/v1/solve/batch", "application/json",
		bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: []mwl.Problem{p}})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out mwl.BatchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || !out.Results[0].Infeasible || out.Results[0].Error == "" {
		t.Fatalf("forwarded batch result lost its infeasible marker: %+v", out.Results)
	}
}

// TestClusterValidation: the flag combinations that cannot form a
// cluster are rejected up front.
func TestClusterValidation(t *testing.T) {
	if cl, err := newCluster("", ""); err != nil || cl != nil {
		t.Fatalf("empty peers: cl=%v err=%v, want single-replica nil", cl, err)
	}
	if _, err := newCluster("a:1,b:1", ""); err == nil {
		t.Fatal("-peers without -self accepted")
	}
	if _, err := newCluster("a:1,b:1", "c:1"); err == nil {
		t.Fatal("-self outside -peers accepted")
	}
	if _, err := newCluster("", "a:1"); err == nil {
		t.Fatal("-self without -peers accepted")
	}
	cl, err := newCluster(" a:1 , b:1 ", "b:1/")
	if err != nil {
		t.Fatal(err)
	}
	if cl.self != "http://b:1" || cl.ring.Len() != 2 {
		t.Fatalf("normalization broken: self=%q ring=%v", cl.self, cl.ring.Replicas())
	}
}

// TestShardMetricsExposed: cluster counters appear on /metrics.
func TestShardMetricsExposed(t *testing.T) {
	reps := startCluster(t, 2)
	resp, err := http.Get(reps[0].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{
		"mwld_shard_owned_total 0",
		"mwld_shard_forwarded_total 0",
		"mwld_shard_fallback_total 0",
		"mwld_shard_replicas 2",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestClusterOwnerDrainingFallsBack: an owner that answers 499 (it is
// canceling work to shut down) while our client is still connected is
// treated as unreachable — the peer solves locally instead of relaying
// a cancellation the client never asked for. The batch half posts a
// second problem of the same owner, which falls back too, next to the
// first, which the single solve's fallback left cached on the peer.
func TestClusterOwnerDrainingFallsBack(t *testing.T) {
	reps := startCluster(t, 2)
	lib := mwl.DefaultLibrary()
	owner, peer := reps[0], reps[1]
	pick := problemPicker(t, reps)
	p, p2 := pick(owner), pick(owner)
	g := p.Graph

	// Replace the owner with a stub that answers every solve 499, the
	// shape of a replica draining its in-flight work on SIGINT.
	addr := strings.TrimPrefix(owner.url, "http://")
	owner.srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	draining := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(499)
		w.Write([]byte(`{"error":"context canceled"}`))
	})}
	go draining.Serve(ln)
	t.Cleanup(func() { draining.Close() })

	// Single solve: local fallback, not a relayed 499.
	resp, err := http.Post(peer.url+"/v1/solve", "application/json", bytes.NewReader(mustJSON(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with draining owner, want 200 local fallback", resp.StatusCode)
	}
	var sol mwl.Solution
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatal(err)
	}
	if err := sol.Datapath.Verify(g, lib, p.Lambda); err != nil {
		t.Fatalf("fallback datapath illegal: %v", err)
	}

	// Batch path takes the same detour for the uncached problem; the
	// cached one is answered from the fallback's copy.
	resp2, err := http.Post(peer.url+"/v1/solve/batch", "application/json",
		bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: []mwl.Problem{p2, p}})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out mwl.BatchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Solution == nil || out.Results[1].Solution == nil {
		t.Fatalf("batch with draining owner: %+v", out.Results)
	}
	if err := out.Results[0].Solution.Datapath.Verify(g, lib, p2.Lambda); err != nil {
		t.Fatalf("batch fallback datapath illegal: %v", err)
	}
	if !out.Results[1].Solution.Cached || out.Results[1].Solution.Area != sol.Area {
		t.Fatalf("batch copy hit: %+v, want the single solve's answer, cached", out.Results[1].Solution)
	}

	if got := peer.cl.fallback.Load(); got != 2 {
		t.Fatalf("fallback counter = %d, want 2", got)
	}
	if got := peer.cl.forwarded.Load(); got != 0 {
		t.Fatalf("forwarded counter = %d for relays that never served a client", got)
	}
	if got := peer.cl.copyHits.Load(); got != 1 {
		t.Fatalf("copy hits = %d, want 1", got)
	}
}

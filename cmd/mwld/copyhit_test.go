package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	mwl "repro"
)

// copyCluster starts a 2-replica cluster and returns it with a problem
// picker for fresh problems.
func copyCluster(t *testing.T) (owner, peer *replica, pick func(*replica) mwl.Problem) {
	t.Helper()
	reps := startCluster(t, 2)
	return reps[0], reps[1], problemPicker(t, reps)
}

// solveWithCopy solves p on its owner and Admits a copy of the answer
// on peer, as replication would; it returns p's key.
func solveWithCopy(t *testing.T, owner, peer *replica, p mwl.Problem) string {
	t.Helper()
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := owner.svc.SolveKeyed(context.Background(), key, p)
	if err != nil {
		t.Fatal(err)
	}
	peer.svc.Admit(key, sol, nil)
	return key
}

// counts is the movement a copy hit must (and must not) cause.
type counts struct {
	ownerHashes, ownerHits, ownerMisses uint64
	peerHits, peerMisses                uint64
	forwarded, copyHits                 uint64
	owned, fallback, rerouted           uint64
}

func snapshot(owner, peer *replica) counts {
	os, ps := owner.svc.CacheStats(), peer.svc.CacheStats()
	return counts{
		ownerHashes: owner.hashes.Load(), ownerHits: os.Hits, ownerMisses: os.Misses,
		peerHits: ps.Hits, peerMisses: ps.Misses,
		forwarded: peer.cl.forwarded.Load(), copyHits: peer.cl.copyHits.Load(),
		owned: peer.cl.owned.Load(), fallback: peer.cl.fallback.Load(), rerouted: peer.cl.rerouted.Load(),
	}
}

// wantCopyHits checks that n copy hits on peer were all that happened
// since before: no request reached the owner, and no routing counter
// moved on the peer.
func wantCopyHits(t *testing.T, owner, peer *replica, before counts, n uint64) {
	t.Helper()
	want := before
	want.peerHits += n
	want.copyHits += n
	if got := snapshot(owner, peer); got != want {
		t.Fatalf("after %d copy hits: counters %+v, want %+v", n, got, want)
	}
}

// TestCopyHitSingleSolve: a single solve posted to the replica that
// does not own it, but holds a copy, is answered there with the bytes
// the owner's own hit answers with, and never reaches the owner. The
// copy hit shows on /metrics.
func TestCopyHitSingleSolve(t *testing.T) {
	owner, peer, pick := copyCluster(t)
	p := pick(owner)
	key := solveWithCopy(t, owner, peer, p)
	want := wantHit(t, owner.svc, key)

	before := snapshot(owner, peer)
	got := postRaw(t, peer.url, mustJSON(t, p))
	if !bytes.Equal(got, want) {
		t.Fatalf("copy hit answered\n%s\nwant the owner's hit bytes\n%s", got, want)
	}
	wantCopyHits(t, owner, peer, before, 1)
	if m := scrape(t, peer.url); m["mwld_shard_copy_hits_total"] != 1 || m["mwld_cache_hits_total"] != 1 {
		t.Fatalf("metrics: copy hits %v, cache hits %v, want 1 and 1",
			m["mwld_shard_copy_hits_total"], m["mwld_cache_hits_total"])
	}
}

// TestCopyHitBatchAndStream: batch and stream members another replica
// owns are answered from the copies this replica holds — one copy hit
// per problem, no forward — with the owner's solutions.
func TestCopyHitBatchAndStream(t *testing.T) {
	owner, peer, pick := copyCluster(t)
	problems := []mwl.Problem{pick(owner), pick(owner), pick(owner)}
	var want []mwl.Solution
	for _, p := range problems {
		key := solveWithCopy(t, owner, peer, p)
		sol, ok := owner.svc.Peek(key)
		if !ok {
			t.Fatal("owner lost its answer")
		}
		sol.Cached = true
		want = append(want, sol)
	}
	check := func(name string, i int, got *mwl.Solution) {
		t.Helper()
		if got == nil {
			t.Fatalf("%s: result %d has no solution", name, i)
		}
		// Elapsed is encoded in nanoseconds, so compare the wire forms.
		if g, w := mustJSON(t, got), mustJSON(t, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("%s: result %d\n%s\nwant the owner's\n%s", name, i, g, w)
		}
	}
	body := mustJSON(t, mwl.BatchRequest{Problems: problems})

	before := snapshot(owner, peer)
	resp, err := http.Post(peer.url+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out mwl.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || len(out.Results) != len(problems) {
		t.Fatalf("batch: %d results, %v", len(out.Results), err)
	}
	for i, r := range out.Results {
		check("batch", i, r.Solution)
	}
	wantCopyHits(t, owner, peer, before, uint64(len(problems)))

	before = snapshot(owner, peer)
	resp, err = http.Post(peer.url+"/v1/solve/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); n++ {
		var rec mwl.StreamResultWire
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		check("stream", rec.Index, rec.Solution)
	}
	if n != len(problems) {
		t.Fatalf("stream: %d records for %d problems", n, len(problems))
	}
	wantCopyHits(t, owner, peer, before, uint64(len(problems)))
}

// TestNoCopyStillRelays: without a copy, a routed request another
// replica owns relays to it exactly as before, single or batched, and
// counts no copy hit; the relayed answer leaves no copy behind.
func TestNoCopyStillRelays(t *testing.T) {
	owner, peer, pick := copyCluster(t)
	p, q := pick(owner), pick(owner)
	for _, x := range []mwl.Problem{p, q} {
		key, err := x.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.svc.SolveKeyed(context.Background(), key, x); err != nil {
			t.Fatal(err)
		}
	}
	if resp, sol := postProblem(t, peer.url, p); resp.StatusCode != http.StatusOK || !sol.Cached {
		t.Fatalf("relayed hit: status %d, cached %v", resp.StatusCode, sol.Cached)
	}
	postBatch(t, peer.url, q)
	if got := peer.cl.forwarded.Load(); got != 2 {
		t.Fatalf("forwarded = %d, want 2", got)
	}
	if got := peer.cl.copyHits.Load(); got != 0 {
		t.Fatalf("copy hits = %d without a copy", got)
	}
	if st := owner.svc.CacheStats(); st.Hits != 2 {
		t.Fatalf("owner answered %d hits, want 2", st.Hits)
	}
	if st := peer.svc.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("relaying replica touched its cache: %+v", st)
	}
}

// TestForwardedRequestIgnoresCopyHits: a request a peer already
// forwarded is answered locally as before, from the copy — through the
// one Service.Hit every held answer goes through, which counts a cache
// hit, but no copy hit: no routing decision was made here.
func TestForwardedRequestIgnoresCopyHits(t *testing.T) {
	owner, peer, pick := copyCluster(t)
	p := pick(owner)
	key := solveWithCopy(t, owner, peer, p)

	before := snapshot(owner, peer)
	req, err := http.NewRequest("POST", peer.url+"/v1/solve", bytes.NewReader(mustJSON(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	setRelayHeaders(req, owner.url, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sol mwl.Solution
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d, %v", resp.StatusCode, err)
	}
	want, _ := owner.svc.Peek(key)
	want.Cached = true
	if !bytes.Equal(mustJSON(t, sol), mustJSON(t, want)) {
		t.Fatalf("forwarded request answered %+v, want the copy", sol)
	}
	moved := before
	moved.peerHits++
	if after := snapshot(owner, peer); after != moved {
		t.Fatalf("forwarded request moved counters: %+v, want %+v", after, moved)
	}
}

// TestEmptyOptionsRelayToOwner: a batch member whose options hold only
// an empty limits map or portfolio list hashes as the problem without
// them, so its owner accepts the relayed key and answers it.
func TestEmptyOptionsRelayToOwner(t *testing.T) {
	owner, peer, pick := copyCluster(t)
	var members []string
	for _, opts := range []string{`{"limits":{}}`, `{"portfolio":[]}`} {
		p := pick(owner)
		blob := mustJSON(t, p)
		members = append(members, string(blob[:len(blob)-1])+`,"options":`+opts+`}`)
	}
	body := `{"problems":[` + members[0] + `,` + members[1] + `]}`
	resp, err := http.Post(peer.url+"/v1/solve/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out mwl.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Solution == nil {
			t.Fatalf("member %d (%s): %+v", i, members[i], r)
		}
	}
	if got := peer.cl.forwarded.Load(); got != 2 {
		t.Fatalf("forwarded = %d, want 2: both members belong to the owner", got)
	}
	if got := owner.svc.CacheStats().Misses; got != 2 {
		t.Fatalf("owner solved %d problems, want 2", got)
	}
}

// narrowed returns a copy of p's solution good whose first instance is
// one bit narrower: a copy that no longer verifies.
func narrowed(t *testing.T, p mwl.Problem, good mwl.Solution) mwl.Solution {
	t.Helper()
	var bad mwl.Solution
	if err := json.Unmarshal(mustJSON(t, good), &bad); err != nil {
		t.Fatal(err)
	}
	sig := &bad.Datapath.Instances[0].Kind.Sig
	sig.Hi--
	sig.Lo = min(sig.Lo, sig.Hi)
	if mwl.Verify(p, bad) == nil {
		t.Fatal("the narrowed copy still verifies")
	}
	return bad
}

// TestCopyHitVerifiedUnderVerify: under -verify, a copy Admitted with
// one wrong operand width is refused on its first copy hit — dropped
// and counted as a verify failure — and the request relays to the
// owner, on the single, batch and stream paths. A sound copy passes
// Verify once and is then served as a copy hit.
func TestCopyHitVerifiedUnderVerify(t *testing.T) {
	reps := startClusterWith(t, 2, mwl.ServiceOptions{Workers: 2, Verify: true})
	owner, peer, pick := reps[0], reps[1], problemPicker(t, reps)
	// badCopy solves a fresh problem on its owner and Admits on peer a
	// copy whose first instance is one bit narrower than the owner's.
	badCopy := func() mwl.Problem {
		t.Helper()
		p := pick(owner)
		key := solveWithCopy(t, owner, peer, p)
		good, _ := owner.svc.Peek(key)
		peer.svc.Admit(key, narrowed(t, p, good), nil)
		return p
	}
	// wantRefused checks that n bad copies were refused and relayed: no
	// copy hit, n more forwards and verify failures, and the copies gone.
	wantRefused := func(path string, before counts, failures uint64, n int) {
		t.Helper()
		after := snapshot(owner, peer)
		if after.copyHits != before.copyHits || after.forwarded != before.forwarded+uint64(n) {
			t.Fatalf("%s: copy hits %d → %d, forwarded %d → %d; want no copy hit and %d relays",
				path, before.copyHits, after.copyHits, before.forwarded, after.forwarded, n)
		}
		if got := peer.svc.CacheStats().VerifyFailures; got != failures+uint64(n) {
			t.Fatalf("%s: verify failures %d, want %d", path, got, failures+uint64(n))
		}
		if got := peer.svc.CacheStats().Entries; got != 0 {
			t.Fatalf("%s: peer still caches %d entries", path, got)
		}
	}
	p := badCopy()
	before := snapshot(owner, peer)
	resp, sol := postProblem(t, peer.url, p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single: status %d", resp.StatusCode)
	}
	if err := mwl.Verify(p, sol); err != nil {
		t.Fatalf("single: served %v", err)
	}
	wantRefused("single", before, 0, 1)

	for _, path := range []string{"batch", "stream"} {
		problems := []mwl.Problem{badCopy(), badCopy()}
		failures := peer.svc.CacheStats().VerifyFailures
		before := snapshot(owner, peer)
		for i, sol := range postProblems(t, peer.url+"/v1/solve/"+path, problems) {
			if sol == nil {
				t.Fatalf("%s: result %d has no solution", path, i)
			}
			if err := mwl.Verify(problems[i], *sol); err != nil {
				t.Fatalf("%s: result %d served %v", path, i, err)
			}
		}
		wantRefused(path, before, failures, len(problems))
	}

	q := pick(owner)
	key := solveWithCopy(t, owner, peer, q)
	failures := peer.svc.CacheStats().VerifyFailures
	for i := 1; i <= 2; i++ {
		before := snapshot(owner, peer)
		postRaw(t, peer.url, mustJSON(t, q))
		wantCopyHits(t, owner, peer, before, 1)
	}
	if got := peer.svc.CacheStats().VerifyFailures; got != failures {
		t.Fatalf("a sound copy failed Verify: %d failures, want %d", got, failures)
	}
	if _, ok := peer.svc.Peek(key); !ok {
		t.Fatal("the sound copy was dropped")
	}
}

// postProblems posts problems to a batch or stream endpoint and returns
// the solutions by problem index.
func postProblems(t *testing.T, url string, problems []mwl.Problem) []*mwl.Solution {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: problems})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make([]*mwl.Solution, len(problems))
	if strings.HasSuffix(url, "/stream") {
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			var rec mwl.StreamResultWire
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			out[rec.Index] = rec.Solution
		}
		return out
	}
	var br mwl.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		out[i] = r.Solution
	}
	return out
}

// TestFailoverCopyVerifiedUnderVerify: a replica answering for a down
// owner serves the copy it holds, or the one it reads through from the
// third replica, only if it verifies under -verify. A copy Admitted
// with one wrong operand width is refused and counted, and the problem
// is solved afresh; without -verify the same copy is served as it is.
func TestFailoverCopyVerifiedUnderVerify(t *testing.T) {
	for _, verify := range []bool{false, true} {
		t.Run(fmt.Sprintf("verify=%v", verify), func(t *testing.T) {
			reps := startHealingClusterWith(t, 3, 1, testHealthConfig(), mwl.ServiceOptions{Workers: 2, Verify: verify})
			down := reps[0]
			// Two problems the replica about to go down owns: the
			// acting replica holds the bad copy of the first, the third
			// replica that of the second.
			g := mwl.Fig1Graph()
			lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
			if err != nil {
				t.Fatal(err)
			}
			var problems []mwl.Problem
			for l := lmin; l < lmin+30 && len(problems) < 2; l++ {
				p := mwl.Problem{Graph: g, Lambda: l}
				key, err := p.Hash()
				if err != nil {
					t.Fatal(err)
				}
				if down.cl.owner(key) == down.url {
					problems = append(problems, p)
				}
			}
			if len(problems) < 2 {
				t.Fatalf("%s owns %d of the candidate problems, want 2", down.url, len(problems))
			}
			down.srv.Close()
			for _, r := range reps[1:] {
				waitFor(t, "the survivors to mark the owner down", func() bool { return !r.cl.alive(down.url) })
			}
			for i, p := range problems {
				key, _ := p.Hash()
				rank := down.cl.ring.Rank(key)
				acting, third := byURL(t, reps, rank[1]), byURL(t, reps, rank[2])
				good, err := mwl.Solve(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				holder, path := acting, "held copy"
				if i == 1 {
					holder, path = third, "read-through copy"
				}
				holder.svc.Admit(key, narrowed(t, p, good), nil)

				before := acting.svc.CacheStats()
				resp, got := postProblem(t, acting.url, p)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d", path, resp.StatusCode)
				}
				after := acting.svc.CacheStats()
				verr := mwl.Verify(p, got)
				switch {
				case verify && verr != nil:
					t.Fatalf("%s: served under -verify: %v", path, verr)
				case verify && (after.VerifyFailures != before.VerifyFailures+1 || after.Misses != before.Misses+1):
					t.Fatalf("%s: verify failures %d → %d, misses %d → %d; want one refused copy and one solve",
						path, before.VerifyFailures, after.VerifyFailures, before.Misses, after.Misses)
				case !verify && (verr == nil || !got.Cached || after.Misses != before.Misses):
					t.Fatalf("%s: without -verify got cached=%v, verify error %v, misses %d → %d; want the copy served",
						path, got.Cached, verr, before.Misses, after.Misses)
				}
			}
		})
	}
}

// TestOwnerCopyVerifiedUnderVerify: a key's owner can hold a copy a
// peer replicated to it — a shedding owner receives the fallback
// solver's copy. Under -verify, a copy Admitted on the owner with one
// wrong operand width is refused on the owner's single, relayed-key,
// batch and stream paths alike: dropped, counted as a verify failure,
// and solved afresh. Without -verify the copy is served as it is.
func TestOwnerCopyVerifiedUnderVerify(t *testing.T) {
	for _, verify := range []bool{false, true} {
		t.Run(fmt.Sprintf("verify=%v", verify), func(t *testing.T) {
			reps := startClusterWith(t, 2, mwl.ServiceOptions{Workers: 2, Verify: verify})
			owner, peer, pick := reps[0], reps[1], problemPicker(t, reps)
			for _, path := range []string{"single", "relayed", "batch", "stream"} {
				p := pick(owner)
				key, err := p.Hash()
				if err != nil {
					t.Fatal(err)
				}
				good, err := mwl.Solve(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				owner.svc.Admit(key, narrowed(t, p, good), nil)

				before := owner.svc.CacheStats()
				var got *mwl.Solution
				switch path {
				case "single", "relayed":
					url := owner.url
					if path == "relayed" {
						url = peer.url // no copy there: relayed to the owner with the key
					}
					resp, sol := postProblem(t, url, p)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d", path, resp.StatusCode)
					}
					got = &sol
				default:
					got = postProblems(t, owner.url+"/v1/solve/"+path, []mwl.Problem{p})[0]
				}
				if got == nil {
					t.Fatalf("%s: no solution", path)
				}
				after := owner.svc.CacheStats()
				verr := mwl.Verify(p, *got)
				switch {
				case verify && verr != nil:
					t.Fatalf("%s: served under -verify: %v", path, verr)
				case verify && (after.VerifyFailures != before.VerifyFailures+1 || after.Misses != before.Misses+1):
					t.Fatalf("%s: verify failures %d → %d, misses %d → %d; want one refused copy and one solve",
						path, before.VerifyFailures, after.VerifyFailures, before.Misses, after.Misses)
				case !verify && (verr == nil || !got.Cached || after.Misses != before.Misses):
					t.Fatalf("%s: without -verify got cached=%v, verify error %v, misses %d → %d; want the copy served",
						path, got.Cached, verr, before.Misses, after.Misses)
				}
			}
			if got := peer.cl.forwarded.Load(); got != 1 {
				t.Fatalf("the relayed request was forwarded %d times, want 1", got)
			}
		})
	}
}

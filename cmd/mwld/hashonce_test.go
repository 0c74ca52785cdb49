package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	mwl "repro"
)

// problemPicker returns a function yielding fresh Fig. 1 problems — each
// at a λ not handed out before — owned by the given replica.
func problemPicker(t testing.TB, reps []*replica) func(owner *replica) mwl.Problem {
	t.Helper()
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	return func(owner *replica) mwl.Problem {
		t.Helper()
		for lambda := lmin + 1; lambda < lmin+200; lambda++ {
			if used[lambda] {
				continue
			}
			p := mwl.Problem{Graph: g, Lambda: lambda}
			if o, _ := splitByOwner(t, reps, p); o == owner {
				used[lambda] = true
				return p
			}
		}
		t.Fatalf("no problem owned by %s", owner.url)
		return mwl.Problem{}
	}
}

// scrape reads a replica's unlabelled /metrics samples.
func scrape(t testing.TB, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("metric %q: %v", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out
}

// postBatch posts problems to a replica's batch endpoint and fails the
// test on any per-problem error.
func postBatch(t testing.TB, url string, problems ...mwl.Problem) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve/batch", "application/json",
		bytes.NewReader(mustJSON(t, mwl.BatchRequest{Problems: problems})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out mwl.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("batch result %d: %s", i, r.Error)
		}
	}
}

// TestOneHashPerRequestPerReplica: a request is hashed once where it
// enters, the key rides the relay, and the owner answers a relayed hit
// without hashing (or decoding) the body. The cache and shard counters
// move as they did when every layer hashed for itself.
func TestOneHashPerRequestPerReplica(t *testing.T) {
	reps := startCluster(t, 2)
	a, b := reps[0], reps[1]
	pick := problemPicker(t, reps)
	pa, pb, pb2 := pick(a), pick(b), pick(b)

	post := func(p mwl.Problem) {
		t.Helper()
		if resp, _ := postProblem(t, a.url, p); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	for _, step := range []struct {
		name         string
		do           func()
		wantA, wantB uint64
	}{
		{"local miss", func() { post(pa) }, 1, 0},
		{"local hit", func() { post(pa) }, 1, 0},
		{"relayed miss", func() { post(pb) }, 1, 1},
		{"relayed hit", func() { post(pb) }, 1, 0},
		// One hash per member on the entry replica; on the owner a
		// relayed hit (pb) costs none and a relayed miss (pb2) one.
		{"batch", func() { postBatch(t, a.url, pa, pb, pb2) }, 3, 1},
	} {
		a0, b0 := a.hashes.Load(), b.hashes.Load()
		step.do()
		if da, db := a.hashes.Load()-a0, b.hashes.Load()-b0; da != step.wantA || db != step.wantB {
			t.Errorf("%s: hashed %d times on the entry replica and %d on the owner, want %d and %d",
				step.name, da, db, step.wantA, step.wantB)
		}
	}

	for _, c := range []struct {
		r    *replica
		want map[string]float64
	}{
		{a, map[string]float64{
			"mwld_cache_hits_total": 2, "mwld_cache_misses_total": 1,
			"mwld_shard_owned_total": 3, "mwld_shard_forwarded_total": 4, "mwld_shard_fallback_total": 0,
		}},
		{b, map[string]float64{
			"mwld_cache_hits_total": 2, "mwld_cache_misses_total": 2,
			"mwld_shard_owned_total": 0, "mwld_shard_forwarded_total": 0, "mwld_shard_fallback_total": 0,
		}},
	} {
		m := scrape(t, c.r.url)
		for name, want := range c.want {
			if m[name] != want {
				t.Errorf("%s: %s = %v, want %v", c.r.url, name, m[name], want)
			}
		}
	}
}

// forgedKey returns a well-formed problem hash, not real, that the ring
// assigns to owner — so a forwarded request carrying it reaches the
// owner's cache lookup and misses there.
func forgedKey(t *testing.T, owner *replica, real string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("forged", i)))
		if key := hex.EncodeToString(sum[:]); key != real && owner.cl.ring.Owner(key) == owner.url {
			return key
		}
	}
	t.Fatal("no forged key owned by the replica")
	return ""
}

// TestForgedRelayKeyCannotPoisonCache: the key header is client-
// settable, so a forwarded request whose key misses is checked against
// the body's own hash and refused on a mismatch — nothing is solved or
// stored under the forged key — while routed requests ignore the header.
func TestForgedRelayKeyCannotPoisonCache(t *testing.T) {
	reps := startCluster(t, 2)
	pick := problemPicker(t, reps)
	owner := reps[0]
	p := pick(owner)
	real, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	forged := forgedKey(t, owner, real)

	solve := func(url string, header map[string]string) int {
		t.Helper()
		req, err := http.NewRequest("POST", url+"/v1/solve", bytes.NewReader(mustJSON(t, p)))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var sol mwl.Solution
			if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
				t.Fatal(err)
			}
			if err := mwl.Verify(p, sol); err != nil {
				t.Fatalf("served solution fails Verify: %v", err)
			}
		}
		return resp.StatusCode
	}
	lookup := func(key string) int {
		t.Helper()
		resp, err := http.Get(owner.url + "/internal/v1/solution/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := solve(owner.url, map[string]string{forwardedHeader: "test", keyHeader: forged}); code != http.StatusBadRequest {
		t.Fatalf("forwarded request with a forged key: status %d, want 400", code)
	}
	if code := lookup(forged); code != http.StatusNotFound {
		t.Fatalf("GET forged key after the refused request: status %d, want 404", code)
	}
	if st := owner.svc.CacheStats(); st.Misses != 0 {
		t.Fatalf("refused request reached the solver path: %+v", st)
	}
	// A routed request ignores the header: it is hashed and solved under
	// its real key, on either replica.
	for _, r := range reps {
		if code := solve(r.url, map[string]string{keyHeader: forged}); code != http.StatusOK {
			t.Fatalf("routed request to %s carrying a forged key: status %d, want 200", r.url, code)
		}
	}
	if code := lookup(real); code != http.StatusOK {
		t.Fatalf("GET real key: status %d, want 200", code)
	}
	if code := lookup(forged); code != http.StatusNotFound {
		t.Fatalf("GET forged key after routed solves: status %d, want 404", code)
	}
	// The real key relayed by a peer is a hit served without decoding.
	if code := solve(owner.url, map[string]string{forwardedHeader: "test", keyHeader: real}); code != http.StatusOK {
		t.Fatalf("forwarded request with the real key: status %d, want 200", code)
	}
	if st := owner.svc.CacheStats(); st.Misses != 1 {
		t.Fatalf("problem solved %d times, want once", st.Misses)
	}
}

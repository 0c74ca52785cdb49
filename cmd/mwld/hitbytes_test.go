package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mwl "repro"
)

// TestTrailingDataRejected: every endpoint that decodes a JSON body
// refuses one followed by anything but whitespace — including a stray
// closing bracket or brace, which json.Decoder.More does not report.
func TestTrailingDataRejected(t *testing.T) {
	svc := mwl.NewService(1)
	srv := httptest.NewServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20, batchMax: defaultBatchMax}))
	defer srv.Close()
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 1}
	key := strings.Repeat("cd", 32)
	for _, c := range []struct {
		method, path string
		body         []byte
		ok           int
	}{
		{"POST", "/v1/solve", mustJSON(t, p), http.StatusOK},
		{"POST", "/v1/solve/batch", mustJSON(t, mwl.BatchRequest{Problems: []mwl.Problem{p}}), http.StatusOK},
		{"PUT", "/internal/v1/solution/" + key,
			mustJSON(t, mwl.Solution{Method: "test", Datapath: &mwl.Datapath{}, Area: 7}), http.StatusNoContent},
	} {
		for _, tail := range []string{"}", "]", " }", "\n]", " x", "{}"} {
			status := do(t, c.method, srv.URL+c.path, append(append([]byte(nil), c.body...), tail...))
			if status != http.StatusBadRequest {
				t.Errorf("%s %s with trailing %q: status %d, want 400", c.method, c.path, tail, status)
			}
		}
		if status := do(t, c.method, srv.URL+c.path, append(append([]byte(nil), c.body...), " \r\n\t"...)); status != c.ok {
			t.Errorf("%s %s with trailing whitespace: status %d, want %d", c.method, c.path, status, c.ok)
		}
	}
}

// do sends one request and returns its status.
func do(t *testing.T, method, url string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// wantHit is what a cache hit on key must answer: writeJSON's output
// for the solution the Service holds, with Cached set.
func wantHit(t *testing.T, svc *mwl.Service, key string) []byte {
	t.Helper()
	sol, ok := svc.Peek(key)
	if !ok {
		t.Fatalf("key %s not cached", key)
	}
	sol.Cached = true
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, sol)
	return rec.Body.Bytes()
}

// postRaw posts a problem body and returns the response body, failing
// the test on anything but a JSON 200.
func postRaw(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), got)
	}
	return got
}

// TestHitAnswersWithEncodedBytes: a cache hit — single-replica, routed
// to its owner, or relayed to the owner — answers with exactly the
// bytes writeJSON renders for the cached solution with Cached set, and
// those are compact.
func TestHitAnswersWithEncodedBytes(t *testing.T) {
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	body := mustJSON(t, p)
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got []byte, svc *mwl.Service) {
		t.Helper()
		if want := wantHit(t, svc, key); !bytes.Equal(got, want) {
			t.Fatalf("%s: hit answered\n%s\nwant\n%s", name, got, want)
		}
		if bytes.Count(got, []byte("\n")) != 1 || !bytes.Contains(got, []byte(`"cached":true`)) {
			t.Fatalf("%s: not one compact cached record: %q", name, got)
		}
	}

	svc := mwl.NewService(1)
	srv := httptest.NewServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20}))
	defer srv.Close()
	postRaw(t, srv.URL, body)
	check("single replica", postRaw(t, srv.URL, body), svc)

	reps := startCluster(t, 2)
	owner, peer := splitByOwner(t, reps, p)
	postRaw(t, owner.url, body)
	check("routed to owner", postRaw(t, owner.url, body), owner.svc)
	check("relayed", postRaw(t, peer.url, body), owner.svc)
	if _, ok := peer.svc.Peek(key); ok {
		t.Fatal("the relaying replica cached the owner's answer")
	}
}

// TestCacheBytesFollowByteCap: with hit bytes stored next to every
// solution, mwld_cache_bytes still reports the Service's charge — the
// cached solutions' own encodings plus their keys — and stays under the
// byte cap.
func TestCacheBytesFollowByteCap(t *testing.T) {
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	var problems []mwl.Problem
	var keys []string
	for lambda := lmin; lambda < lmin+8; lambda++ {
		p := mwl.Problem{Graph: g, Lambda: lambda}
		key, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		problems, keys = append(problems, p), append(keys, key)
	}
	charge := func(svc *mwl.Service, key string) int64 {
		sol, ok := svc.Peek(key)
		if !ok {
			return 0
		}
		return int64(len(mustJSON(t, sol)) + len(key))
	}
	// Room for about three entries, never all eight.
	measure := mwl.NewService(1)
	var limit int64
	for i, p := range problems {
		if _, err := measure.Solve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		limit = max(limit, 3*charge(measure, keys[i]))
	}

	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, CacheBytes: limit})
	srv := httptest.NewServer(newHandler(handlerConfig{svc: svc, maxBody: 1 << 20}))
	defer srv.Close()
	for i, p := range problems {
		postRaw(t, srv.URL, mustJSON(t, p))
		var want int64
		for _, key := range keys {
			want += charge(svc, key)
		}
		if got := int64(scrape(t, srv.URL)["mwld_cache_bytes"]); got != want || got > limit {
			t.Fatalf("after %d solves mwld_cache_bytes = %d, want %d (cap %d)", i+1, got, want, limit)
		}
	}
	if scrape(t, srv.URL)["mwld_cache_evictions_total"] == 0 {
		t.Fatalf("no evictions under a %d-byte cap", limit)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	mwl "repro"
)

// omitzeroHonoured reports whether this toolchain's encoding/json
// applies omitzero tags, as mwl's codec does (Go 1.24 on). Before that,
// json.Marshal writes zero stats as an empty object and is not the
// reference for mwld's responses.
func omitzeroHonoured() bool {
	blob, _ := json.Marshal(struct {
		A struct{} `json:"a,omitzero"`
	}{})
	return string(blob) == "{}"
}

// sameAsEncodingJSON fails unless body is json.Marshal's encoding of
// the T it decodes to, newline-terminated as mwld writes every
// document.
func sameAsEncodingJSON[T any](t *testing.T, what string, body []byte) {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, body)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Fatalf("%s: mwld wrote\n%s\nencoding/json writes\n%s", what, body, want)
	}
}

// post sends body and returns the response body, failing on any status
// but 200.
func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d, %v: %s", url, resp.StatusCode, err, got)
	}
	return got
}

// TestResponseBytesMatchEncodingJSON: every body mwld writes for a
// solve — a miss, a hit, a relayed miss and hit, a batch, each stream
// record and the internal GET — holds the bytes encoding/json writes for
// the value it carries, over a pool of TGFF problems of 10 to 60
// operations, with and without stats, and with batch members that fail.
func TestResponseBytesMatchEncodingJSON(t *testing.T) {
	if !omitzeroHonoured() {
		t.Skip("encoding/json ignores omitzero before Go 1.24, so it is not the reference here")
	}
	var pool []mwl.Problem
	for i, n := range []int{10, 20, 30, 40, 50, 60} {
		g, err := mwl.GenerateRandom(mwl.RandomConfig{N: n, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
		if err != nil {
			t.Fatal(err)
		}
		p := mwl.Problem{Graph: g, Lambda: lmin + lmin/2}
		if i%3 == 2 {
			p.Method = "descend" // zero stats: the omitzero member drops out
		}
		pool = append(pool, p)
	}

	single := httptest.NewServer(newHandler(handlerConfig{svc: mwl.NewService(2), maxBody: 1 << 20}))
	defer single.Close()
	reps := startCluster(t, 2)
	for i, p := range pool {
		body := mustJSON(t, p)
		sameAsEncodingJSON[mwl.Solution](t, "miss", post(t, single.URL+"/v1/solve", body))
		sameAsEncodingJSON[mwl.Solution](t, "hit", post(t, single.URL+"/v1/solve", body))

		owner, peer := splitByOwner(t, reps, p)
		sameAsEncodingJSON[mwl.Solution](t, "relayed miss", post(t, peer.url+"/v1/solve", body))
		sameAsEncodingJSON[mwl.Solution](t, "relayed hit", post(t, peer.url+"/v1/solve", body))
		key, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(owner.url + "/internal/v1/solution/" + key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("problem %d: internal GET: status %d, %v", i, resp.StatusCode, err)
		}
		sameAsEncodingJSON[mwl.Solution](t, "internal GET", got)
	}

	// Batches mix held answers, a fresh one and two failures, one of
	// them infeasible; the error messages need escaping.
	fresh := pool[0]
	fresh.Lambda++
	batch := append(append([]mwl.Problem(nil), pool...), fresh,
		mwl.Problem{Graph: pool[0].Graph, Lambda: 1},
		mwl.Problem{Method: "no<such>method", Graph: pool[0].Graph, Lambda: 40})
	body := mustJSON(t, mwl.BatchRequest{Problems: batch})
	for _, url := range []string{single.URL, reps[0].url} {
		sameAsEncodingJSON[mwl.BatchResponse](t, "batch", post(t, url+"/v1/solve/batch", body))
		sc := bufio.NewScanner(bytes.NewReader(post(t, url+"/v1/solve/stream", body)))
		sc.Buffer(nil, 1<<20)
		records := 0
		for sc.Scan() {
			sameAsEncodingJSON[mwl.StreamResultWire](t, "stream record", append(sc.Bytes(), '\n'))
			records++
		}
		if records != len(batch) {
			t.Fatalf("%d stream records for %d problems", records, len(batch))
		}
	}
}

// TestCanonicalHitTakesNoEncodingJSON: a cache hit on a body in the
// canonical form — json.Marshal's — is decoded, hashed and answered
// without encoding/json; a body outside that form is still decoded by
// it. The two bodies decode to the same Problem and answer with the
// same bytes, so only the decoder that reads them can tell their
// allocations apart: were the canonical body handed to encoding/json
// as well, the counts would be equal.
func TestCanonicalHitTakesNoEncodingJSON(t *testing.T) {
	h := newHandler(handlerConfig{svc: mwl.NewService(1), maxBody: 1 << 20})
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	canonical := mustJSON(t, mwl.Problem{Graph: g, Lambda: 80, Options: mwl.SolveOptions{Seed: 3}})
	variant := bytes.Replace(canonical, []byte(`"lambda"`), []byte(`"Lambda"`), 1)
	hit := func(body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	hit(canonical)
	want := hit(canonical)
	if !bytes.Contains(want, []byte(`"cached":true`)) {
		t.Fatalf("second solve was not a hit: %s", want)
	}
	if got := hit(variant); !bytes.Equal(got, want) {
		t.Fatalf("the case-variant body answered\n%s\nwant\n%s", got, want)
	}
	fast := testing.AllocsPerRun(20, func() { hit(canonical) })
	slow := testing.AllocsPerRun(20, func() { hit(variant) })
	if fast >= slow {
		t.Fatalf("a canonical hit allocates %.0f times, as many as an encoding/json decode of the same problem (%.0f)", fast, slow)
	}
	t.Logf("hit allocations: canonical %.0f, encoding/json %.0f", fast, slow)
}

package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	mwl "repro"
)

// BenchmarkServe times one request through two in-process replicas on
// loopback, in the problem shape of mwlbench's serve workload (TGFF
// graphs of 30 operations at λ = 2·λ_min):
//
//	hit           POST /v1/solve to the problem's owner, which has it cached
//	relayed-hit   as hit, posted to the other replica, which relays to the owner
//	relayed-miss  as relayed-hit, with the owner's cache cleared each time
//	batch         POST /v1/solve/batch of 8 cached problems, 4 owned by each
//	              replica, each routed to its owner
//	stream        the same 8 problems through POST /v1/solve/stream
//	copy-hit      as relayed-hit, but the other replica holds an Admitted
//	              copy (as replication leaves one) and answers from it
//
// hashes/op counts request-path Problem.Hash calls on both replicas;
// B/op and allocs/op cover the client and both replicas.
func BenchmarkServe(b *testing.B) {
	reps := startCluster(b, 2)
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: 2 * lmin}
	key, err := p.Hash()
	if err != nil {
		b.Fatal(err)
	}
	body := mustJSON(b, p)
	owner, peer := splitByOwner(b, reps, p)
	// The batch holds 4 problems of each replica, chosen by owner so that
	// the split, and with it the rows' allocations, does not move with
	// the listeners' ports.
	var batch mwl.BatchRequest
	perOwner := map[*replica]int{}
	for lambda := 2 * lmin; len(batch.Problems) < 8; lambda++ {
		q := mwl.Problem{Graph: g, Lambda: lambda}
		if o, _ := splitByOwner(b, reps, q); perOwner[o] < 4 {
			perOwner[o]++
			batch.Problems = append(batch.Problems, q)
		}
	}
	batchBody := mustJSON(b, batch)
	client := &http.Client{}
	post := func(url string, body []byte) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
	}
	// copy-hit runs last: once the peer holds a copy, it no longer
	// relays p.
	for _, c := range []struct {
		name  string
		url   string
		body  []byte
		clear bool // clear the owner's cache before each request
		admit bool // Admit the owner's answer on the peer first
	}{
		{"hit", owner.url + "/v1/solve", body, false, false},
		{"relayed-hit", peer.url + "/v1/solve", body, false, false},
		{"relayed-miss", peer.url + "/v1/solve", body, true, false},
		{"batch", owner.url + "/v1/solve/batch", batchBody, false, false},
		{"stream", owner.url + "/v1/solve/stream", batchBody, false, false},
		{"copy-hit", peer.url + "/v1/solve", body, false, true},
	} {
		if c.admit {
			sol, ok := owner.svc.Peek(key)
			if !ok {
				b.Fatal("owner holds no answer to copy")
			}
			peer.svc.Admit(key, sol)
		}
		post(c.url, c.body) // warm the cache and the keep-alive connections
		b.Run(c.name, func(b *testing.B) {
			h0 := owner.hashes.Load() + peer.hashes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.clear {
					owner.svc.ClearCache()
				}
				post(c.url, c.body)
			}
			b.StopTimer()
			h := owner.hashes.Load() + peer.hashes.Load() - h0
			b.ReportMetric(float64(h)/float64(b.N), "hashes/op")
		})
	}
}

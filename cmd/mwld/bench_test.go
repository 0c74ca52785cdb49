package main

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	mwl "repro"
)

// BenchmarkServe times one POST /v1/solve through two in-process
// replicas on loopback, the request shape of mwlbench's serve workload
// (a TGFF graph of 30 operations at λ = 2·λ_min):
//
//	hit           posted to the problem's owner, which has it cached
//	relayed-hit   posted to the other replica, which relays to the owner
//	relayed-miss  as relayed-hit, with the owner's cache cleared each time
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
	body := mustJSON(b, p)
	owner, peer := splitByOwner(b, reps, p)
	client := &http.Client{}
	post := func(entry *replica) {
		resp, err := client.Post(entry.url+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
	}
	for _, c := range []struct {
		name  string
		entry *replica
		clear bool
	}{
		{"hit", owner, false},
		{"relayed-hit", peer, false},
		{"relayed-miss", peer, true},
	} {
		post(c.entry) // warm the cache and the keep-alive connections
		b.Run(c.name, func(b *testing.B) {
			h0 := owner.hashes.Load() + peer.hashes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.clear {
					owner.svc.ClearCache()
				}
				post(c.entry)
			}
			b.StopTimer()
			h := owner.hashes.Load() + peer.hashes.Load() - h0
			b.ReportMetric(float64(h)/float64(b.N), "hashes/op")
		})
	}
}

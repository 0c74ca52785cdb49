// Native Go fuzz targets for the wire layer and the solution validator.
// Seed corpora live under testdata/fuzz and run as ordinary unit tests
// in every `go test`; CI additionally runs each target under -fuzz for
// a short smoke budget.
package mwl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	mwl "repro"
)

// fuzzProblemBlob builds a canonical problem encoding for the seed
// corpus.
func fuzzProblemBlob(tb testing.TB, n int, seed int64, mutate func(*mwl.Problem)) []byte {
	tb.Helper()
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: n, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: 40}
	if mutate != nil {
		mutate(&p)
	}
	blob, err := json.Marshal(p)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzProblemWire: decoding arbitrary bytes as a Problem never panics,
// and every decodable problem re-encodes canonically — the re-encoded
// form decodes again, re-encodes to the identical bytes, and hashes
// identically across the round trip (the invariant the Service's
// memoization and the shard router both key on).
func FuzzProblemWire(f *testing.F) {
	f.Add(fuzzProblemBlob(f, 7, 1, nil))
	f.Add(fuzzProblemBlob(f, 3, 2, func(p *mwl.Problem) {
		p.Method = "ilp"
		p.Options = mwl.SolveOptions{TimeLimit: 1000, NodeLimit: 5, Limits: map[string]int{"mul": 2}}
	}))
	f.Add(fuzzProblemBlob(f, 4, 3, func(p *mwl.Problem) {
		p.Method = "anneal"
		p.Options = mwl.SolveOptions{Seed: 42, AnnealMoves: 10, AnnealCooling: 0.9}
	}))
	f.Add(fuzzProblemBlob(f, 5, 4, func(p *mwl.Problem) {
		p.Method = "portfolio"
		p.Options = mwl.SolveOptions{Portfolio: []string{"dpalloc", "twostage"}}
		p.Library = mwl.LibrarySpec{AdderLatency: 1, MulBitsPerCycle: 4}
	}))
	f.Add([]byte(`{"graph":{"ops":[{"type":"mul","hi":8}],"deps":[]},"lambda":4}`))
	f.Add([]byte(`{"graph":{"ops":[{"type":"add","hi":8}],"deps":[[0,0]]}}`))
	// Empty containers and a negative zero encode as absent knobs, so
	// options holding nothing else must drop out of the encoding.
	f.Add([]byte(`{"graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"options":{"limits":{}}}`))
	f.Add([]byte(`{"method":"portfolio","graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"options":{"portfolio":[]}}`))
	f.Add([]byte(`{"method":"anneal","graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"options":{"anneal_init_temp":-0}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var p mwl.Problem
		if json.Unmarshal(data, &p) != nil {
			return // undecodable input is not this target's business
		}
		blob, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("decoded problem does not re-encode: %v", err)
		}
		h1, hashErr := p.Hash()

		var q mwl.Problem
		if err := json.Unmarshal(blob, &q); err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, blob)
		}
		blob2, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("round-tripped problem does not re-encode: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("encoding not canonical:\n%s\n%s", blob, blob2)
		}
		if hashErr == nil {
			h2, err := q.Hash()
			if err != nil {
				t.Fatalf("hash lost across round trip: %v", err)
			}
			if h1 != h2 {
				t.Fatalf("hash unstable across round trip: %s vs %s\n%s", h1, h2, blob)
			}
		}
	})
}

// FuzzVerify: the validator must classify arbitrary (problem, solution)
// pairs — including mutated and mismatched ones — without ever
// crashing; it is the last line of defence in front of the serving
// path, so it can afford to reject but never to panic.
func FuzzVerify(f *testing.F) {
	pblob := fuzzProblemBlob(f, 6, 5, nil)
	var p mwl.Problem
	if err := json.Unmarshal(pblob, &p); err != nil {
		f.Fatal(err)
	}
	sol, err := mwl.Solve(context.Background(), p)
	if err != nil {
		f.Fatal(err)
	}
	sblob, err := json.Marshal(sol)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pblob, sblob)
	f.Add(pblob, bytes.Replace(sblob, []byte(`"area":`), []byte(`"area":1`), 1))
	f.Add(fuzzProblemBlob(f, 3, 6, nil), sblob) // mismatched pair
	f.Add(pblob, []byte(`{}`))
	f.Add([]byte(`{}`), []byte(`{"datapath":{"start":[0],"instances":[{"class":"add","hi":4,"ops":[0]}]}}`))

	f.Fuzz(func(t *testing.T, pdata, sdata []byte) {
		var p mwl.Problem
		if json.Unmarshal(pdata, &p) != nil {
			return
		}
		var sol mwl.Solution
		if json.Unmarshal(sdata, &sol) != nil {
			return
		}
		// Must classify, never crash; and the verdict must be stable.
		err1 := mwl.Verify(p, sol)
		err2 := mwl.Verify(p, sol)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("verdict not deterministic: %v vs %v", err1, err2)
		}
	})
}

// Native Go fuzz targets for the wire layer and the solution validator.
// Seed corpora live under testdata/fuzz and run as ordinary unit tests
// in every `go test`; CI additionally runs each target under -fuzz for
// a short smoke budget.
package mwl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
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

// FuzzProblemWire checks the Problem codec against plain encoding/json,
// as FuzzGraphWire does the graph's. Decoding: for any bytes,
// DecodeProblem and json.Unmarshal both fail or yield the same problem.
// Encoding: every decodable problem encodes to json.Marshal's bytes
// (where encoding/json honours omitzero), and the encoding is canonical
// — it decodes again to the same bytes and the same hash, the invariant
// the Service's memoization and the shard router both key on.
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
	f.Add(fuzzProblemBlob(f, 3, 5, func(p *mwl.Problem) {
		p.Method = "optimal"
		p.Options = mwl.SolveOptions{Incumbent: &mwl.Datapath{
			Start:     []int{0, 1, 2},
			Instances: []mwl.Instance{{Kind: mwl.Kind{Class: mwl.Mul, Sig: mwl.MulSig(16, 8)}, Ops: []mwl.OpID{0, 1, 2}}},
			InstOf:    []int{0, 0, 0},
		}}
	}))
	f.Add([]byte(`{"graph":{"ops":[{"type":"mul","hi":8}],"deps":[]},"lambda":4}`))
	f.Add([]byte(`{"graph":{"ops":[{"type":"add","hi":8}],"deps":[[0,0]]}}`))
	// Empty containers and a negative zero encode as absent knobs, so
	// options holding nothing else must drop out of the encoding.
	f.Add([]byte(`{"graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"options":{"limits":{}}}`))
	f.Add([]byte(`{"method":"portfolio","graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"options":{"portfolio":[]}}`))
	f.Add([]byte(`{"method":"anneal","graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"options":{"anneal_init_temp":-0}}`))
	// What encoding/json before Go 1.24 writes for zero library and
	// options, and the shapes the one-pass decoder hands back to it.
	f.Add([]byte(`{"graph":{"ops":[{"type":"add","hi":8}],"deps":null},"lambda":4,"library":{},"options":{}}`))
	f.Add([]byte(`{"graph":null,"lambda":1e1,"Lambda":2,"lambda":3,"options":{"anneal_cooling":1.5e-1}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := mwl.DecodeProblem(data)
		var ref mwl.Problem
		refErr := json.Unmarshal(data, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeProblem error %v, encoding/json error %v on %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		if d := sameProblem(p, ref); d != nil {
			t.Fatalf("decoders differ on %q: %v", data, d)
		}
		blob, err := p.AppendJSON(nil)
		if err != nil {
			t.Fatalf("decoded problem does not encode: %v", err)
		}
		checkSameBytes(t, "Problem", blob, ref)
		h1, hashErr := p.Hash()

		q, err := mwl.DecodeProblem(blob)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, blob)
		}
		blob2, err := q.AppendJSON(nil)
		if err != nil {
			t.Fatalf("round-tripped problem does not encode: %v", err)
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

// FuzzSolutionWire checks the Solution codec — the replication PUT's,
// the relay's and the store's — against plain encoding/json: for any
// bytes, DecodeSolution and json.Unmarshal both fail or yield the same
// solution, and every decodable solution encodes to json.Marshal's
// bytes (where encoding/json honours omitzero) and decodes back.
func FuzzSolutionWire(f *testing.F) {
	p := mwl.Problem{Graph: mwl.Fig1Graph(), Lambda: 40}
	sol, err := mwl.Solve(context.Background(), p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sol.AppendJSON(nil))
	sol.Cached = true
	f.Add(append(sol.AppendJSON(nil), '\n'))
	sol.Stats = mwl.SolveStats{Nodes: 12, TimedOut: true, Winner: "anneal"}
	f.Add(sol.AppendJSON(nil))
	f.Add([]byte(`{"method":"m","datapath":null,"area":0,"makespan":0,"area_by_kind":{},"elapsed_ns":-3}`))
	f.Add([]byte(`{"method":"m","datapath":{"start":[],"instances":null},"area":1,"makespan":1,"elapsed_ns":1,"stats":{}}`))
	f.Add([]byte(`{"datapath":{"start":[0],"instances":[{"class":"add","hi":4,"lo":2,"ops":[0]},{"class":"mul","hi":4,"ops":null}]}}`))
	f.Add([]byte(`{"datapath":{"start":[0,1],"instances":[{"class":"add","hi":4,"ops":[0,0]}]}}`))
	f.Add([]byte(`{"area_by_kind":{"add 4":1,"add 4":2},"cached":false,"Cached":true}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sol, err := mwl.DecodeSolution(data)
		var ref mwl.Solution
		refErr := json.Unmarshal(data, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeSolution error %v, encoding/json error %v on %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(sol, ref) {
			t.Fatalf("decoders differ on %q:\n%+v\n%+v", data, sol, ref)
		}
		blob := sol.AppendJSON(nil)
		checkSameBytes(t, "Solution", blob, ref)
		back, err := mwl.DecodeSolution(blob)
		if err != nil {
			t.Fatalf("encoding does not decode: %v\n%s", err, blob)
		}
		if !bytes.Equal(back.AppendJSON(nil), blob) {
			t.Fatalf("encoding not canonical:\n%s\n%s", blob, back.AppendJSON(nil))
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

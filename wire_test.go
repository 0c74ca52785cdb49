// Tests for the v1 JSON wire schema: Problem/Solution round-trips and
// canonical problem hashing.
package mwl_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	mwl "repro"
)

func wireProblem(t *testing.T) mwl.Problem {
	t.Helper()
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return mwl.Problem{
		Method: "ilp",
		Graph:  g,
		Lambda: 30,
		Options: mwl.SolveOptions{
			TimeLimit: 2 * time.Second,
			NodeLimit: 1000,
			Limits:    map[string]int{"mul": 2},
		},
	}
}

func TestProblemJSONRoundTrip(t *testing.T) {
	p := wireProblem(t)
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q mwl.Problem
	if err := json.Unmarshal(blob, &q); err != nil {
		t.Fatal(err)
	}
	if q.Method != p.Method || q.Lambda != p.Lambda || q.II != p.II {
		t.Fatalf("scalars differ: %+v vs %+v", q, p)
	}
	if !reflect.DeepEqual(q.Options, p.Options) {
		t.Fatalf("options differ: %+v vs %+v", q.Options, p.Options)
	}
	blob2, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-marshal not canonical:\n%s\n%s", blob, blob2)
	}
	// The decoded graph must solve to the same datapath.
	a, err := mwl.Solve(context.Background(), mwl.Problem{Graph: p.Graph, Lambda: p.Lambda})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mwl.Solve(context.Background(), mwl.Problem{Graph: q.Graph, Lambda: q.Lambda})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Datapath, b.Datapath) {
		t.Fatal("graph did not survive the round-trip")
	}
}

func TestProblemJSONDefaultsLibrary(t *testing.T) {
	// A problem with no library on the wire gets the paper's model.
	var p mwl.Problem
	if err := json.Unmarshal([]byte(`{"graph":{"ops":[{"type":"mul","hi":8}],"deps":[]},"lambda":4}`), &p); err != nil {
		t.Fatal(err)
	}
	sol, err := mwl.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// ⌈(8+8)/8⌉ = 2 cycles, area 64 for the paper's default model.
	if sol.Area != 64 || sol.Makespan != 2 {
		t.Fatalf("default library not applied: area %d makespan %d", sol.Area, sol.Makespan)
	}
}

func TestLibrarySpecOnTheWire(t *testing.T) {
	p := wireProblem(t)
	p.Library = mwl.LibrarySpec{AdderLatency: 1, MulBitsPerCycle: 4}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"adder_latency":1`) {
		t.Fatalf("library spec missing from wire form: %s", blob)
	}
	var q mwl.Problem
	if err := json.Unmarshal(blob, &q); err != nil {
		t.Fatal(err)
	}
	if q.Library != p.Library {
		t.Fatalf("library spec differs: %+v vs %+v", q.Library, p.Library)
	}
}

func TestSolutionJSONRoundTrip(t *testing.T) {
	p := wireProblem(t)
	p.Method = "" // dpalloc
	p.Options = mwl.SolveOptions{}
	sol, err := mwl.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	var back mwl.Solution
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sol) {
		t.Fatalf("solution round-trip differs:\n%+v\n%+v", back, sol)
	}
	// The datapath must still verify against the original graph.
	if err := back.Datapath.Verify(p.Graph, mwl.DefaultLibrary(), p.Lambda); err != nil {
		t.Fatalf("round-tripped datapath illegal: %v", err)
	}
}

// TestSolveStatsWire pins the effort-counter wire contract: every field
// survives a round-trip, and payloads from servers predating the
// Merges/Evals fields decode with those fields zero.
func TestSolveStatsWire(t *testing.T) {
	st := mwl.SolveStats{
		Iterations:  3,
		Refinements: 5,
		Configs:     2,
		Nodes:       9,
		Vars:        11,
		Rows:        13,
		TimedOut:    true,
		Moves:       17,
		Accepted:    7,
		Merges:      4,
		Evals:       19,
		Winner:      "dpalloc",
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back mwl.SolveStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("stats round-trip differs:\n%+v\n%+v", back, st)
	}
	for _, key := range []string{"merges", "evals", "moves"} {
		if !strings.Contains(string(blob), `"`+key+`"`) {
			t.Fatalf("wire encoding lacks %q: %s", key, blob)
		}
	}

	// An old-schema payload has no effort fields at all.
	old := []byte(`{"iterations":3,"refinements":5,"configs":2}`)
	var legacy mwl.SolveStats
	if err := json.Unmarshal(old, &legacy); err != nil {
		t.Fatal(err)
	}
	want := mwl.SolveStats{Iterations: 3, Refinements: 5, Configs: 2}
	if legacy != want {
		t.Fatalf("legacy decode = %+v, want %+v", legacy, want)
	}
}

// TestSolveStatsPopulated checks the new counters actually flow out of
// the solvers: dpalloc reports binder merges/evaluations, anneal reports
// accepted fusions and schedules run.
func TestSolveStatsPopulated(t *testing.T) {
	p := wireProblem(t)
	p.Method = ""
	p.Options = mwl.SolveOptions{}
	sol, err := mwl.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Evals == 0 {
		t.Fatalf("dpalloc reported no binder evaluations: %+v", sol.Stats)
	}
	p.Method = "anneal"
	p.Options = mwl.SolveOptions{Seed: 3, AnnealMoves: 2000}
	sol, err = mwl.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Evals == 0 {
		t.Fatalf("anneal reported no schedule evaluations: %+v", sol.Stats)
	}
}

func TestProblemHash(t *testing.T) {
	p := wireProblem(t)
	h1, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash not stable: %q vs %q", h1, h2)
	}
	// The default method resolves before hashing: "" and "dpalloc" are
	// the same problem.
	a, b := p, p
	a.Method = ""
	b.Method = "dpalloc"
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Fatal("empty method and DefaultMethod hash differently")
	}
	// Any material change must change the hash.
	c := p
	c.Lambda++
	hc, _ := c.Hash()
	if hc == h1 {
		t.Fatal("λ change did not change the hash")
	}
	d := p
	d.Method = "twostage"
	hd, _ := d.Hash()
	if hd == h1 {
		t.Fatal("method change did not change the hash")
	}
	// In-memory library overrides are unhashable by design.
	e := p
	e.Lib = mwl.DefaultLibrary()
	if _, err := e.Hash(); err == nil {
		t.Fatal("problem with Lib override hashed")
	}
}

// TestStreamResultWire: the NDJSON stream record carries the problem
// index alongside the standard batch result fields, and FromWire
// reverses the conversion — including the infeasible classification,
// which must survive a Wire/FromWire/Wire round trip so relayed
// verdicts keep their 422-vs-500 meaning.
func TestStreamResultWire(t *testing.T) {
	ok := mwl.BatchResult{Solution: mwl.Solution{Method: "dpalloc", Area: 42}}
	blob := mwl.AppendStreamRecord(nil, 3, ok)
	if !strings.Contains(string(blob), `"index":3`) {
		t.Fatalf("record not index-tagged: %s", blob)
	}
	var back mwl.StreamResultWire
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Index != 3 || back.Solution == nil || back.Solution.Area != 42 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if r := back.FromWire(); r.Err != nil || r.Solution.Area != 42 {
		t.Fatalf("FromWire: %+v", r)
	}

	// Zero index must still appear on the wire: clients key on it.
	if blob := mwl.AppendStreamRecord(nil, 0, ok); !strings.Contains(string(blob), `"index":0`) {
		t.Fatalf("index 0 omitted: %s", blob)
	}

	infeasible := mwl.BatchResultWire{Error: "lambda below minimum", Infeasible: true}
	r := infeasible.FromWire()
	if r.Err == nil || !mwl.IsInfeasible(r.Err) {
		t.Fatalf("FromWire dropped infeasibility: %v", r.Err)
	}
	if again := r.Wire(); !again.Infeasible || again.Error == "" {
		t.Fatalf("Wire round trip lost infeasibility: %+v", again)
	}

	plain := mwl.BatchResultWire{Error: "solver exploded"}
	if r := plain.FromWire(); r.Err == nil || mwl.IsInfeasible(r.Err) || r.Err.Error() != "solver exploded" {
		t.Fatalf("plain error mangled: %v", r.Err)
	}

	if r := (mwl.BatchResultWire{}).FromWire(); r.Err == nil {
		t.Fatal("empty wire record produced no error")
	}
}

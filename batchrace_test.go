package mwl_test

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	mwl "repro"
	"repro/internal/tgff"
)

// TestConcurrentBatchesMatchSequential: DPAlloc's ladders take their
// working memory from one process-wide pool (core.Workspace), so
// concurrent solves hand the same buffers from goroutine to goroutine.
// Three Services solve one batch of mixed sizes at once, each in its own
// order — dpalloc with automatic and with fixed resource bounds, below
// and at core.BatchMinOps (speculative ladders when GOMAXPROCS > 1), and
// pipelined — and every answer must equal the answer of the same problem
// solved alone, one at a time, before them. CI runs it under -race with
// -cpu 1,2,4.
func TestConcurrentBatchesMatchSequential(t *testing.T) {
	problems := mixedProblems(t)
	ctx := context.Background()
	want := make([]string, len(problems))
	for i, p := range problems {
		sol, err := mwl.Solve(ctx, p)
		want[i] = answer(t, sol, err)
	}
	const services = 3
	got := make([][]mwl.BatchResult, services)
	var wg sync.WaitGroup
	for s := range services {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rotated, so that different sizes run side by side.
			shift := s * len(problems) / services
			batch := append(append([]mwl.Problem(nil), problems[shift:]...), problems[:shift]...)
			got[s] = mwl.NewService(runtime.GOMAXPROCS(0)).SolveBatch(ctx, batch)
		}()
	}
	wg.Wait()
	for s, results := range got {
		shift := s * len(problems) / services
		for j, r := range results {
			i := (j + shift) % len(problems)
			if a := answer(t, r.Solution, r.Err); a != want[i] {
				t.Errorf("service %d, problem %d (%d ops, method %q):\n got %.300s\nwant %.300s",
					s, i, problems[i].Graph.N(), problems[i].Method, a, want[i])
			}
		}
	}
}

// mixedProblems returns the problems of TestConcurrentBatchesMatchSequential.
// The two 200-operation problems are among those TestScalingGolden
// (internal/core) found to have one answer, whichever way blame breaks
// utilisation ties.
func mixedProblems(t *testing.T) []mwl.Problem {
	t.Helper()
	lib := mwl.DefaultLibrary()
	problem := func(n int, seed int64, tenths int) mwl.Problem {
		g, err := tgff.Generate(tgff.Config{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := mwl.MinLambda(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		return mwl.Problem{Graph: g, Lambda: lmin * tenths / 10}
	}
	var ps []mwl.Problem
	for _, n := range []int{5, 9, 14, 20, 24} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, tenths := range []int{10, 12, 13} {
				ps = append(ps, problem(n, 31*seed+int64(n), tenths))
			}
			fixed := problem(n, 37*seed+int64(n), 15)
			fixed.Options.Limits = map[string]int{"add": 2, "mul": 2}
			pipelined := problem(n, 41*seed+int64(n), 12)
			pipelined.Method, pipelined.II = "pipelined", pipelined.Lambda
			ps = append(ps, fixed, pipelined)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		ps = append(ps, problem(200, seed, 12))
	}
	return ps
}

// answer renders a solve's outcome without its timing.
func answer(t *testing.T, sol mwl.Solution, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	sol.Elapsed, sol.Cached = 0, false
	b, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

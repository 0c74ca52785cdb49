// Tests for the Solver API: registry behaviour, bit-for-bit equivalence
// of the registered methods with the underlying allocators, and prompt
// cancellation through the context plumbing.
package mwl_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	mwl "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ilp"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/twostage"
)

func TestRegistryHasAllSixMethods(t *testing.T) {
	want := []string{"descend", "dpalloc", "ilp", "optimal", "pipelined", "twostage"}
	got := mwl.Methods()
	for _, name := range want {
		found := false
		for _, g := range got {
			if g == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("method %q not registered (have %v)", name, got)
		}
		if _, ok := mwl.Lookup(name); !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if mwl.Describe(name) == "" {
			t.Errorf("method %q has no description", name)
		}
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	stub := mwl.SolverFunc(func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		return mwl.Solution{}, nil
	})
	if err := mwl.Register("test-dup", stub); err != nil {
		t.Fatal(err)
	}
	if err := mwl.Register("test-dup", stub); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := mwl.Register("dpalloc", stub); err == nil {
		t.Fatal("shadowing a built-in accepted")
	}
	if err := mwl.Register("", stub); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := mwl.Register("test-nil", nil); err == nil {
		t.Fatal("nil solver accepted")
	}
}

func TestGetUnknownMethodIsSafe(t *testing.T) {
	_, err := mwl.Get("no-such-method").Solve(context.Background(), mwl.Problem{Graph: mwl.Fig1Graph(), Lambda: 99})
	if !errors.Is(err, mwl.ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", err)
	}
	_, err = mwl.Solve(context.Background(), mwl.Problem{Method: "bogus", Graph: mwl.Fig1Graph(), Lambda: 99})
	if !errors.Is(err, mwl.ErrUnknownMethod) {
		t.Fatalf("Solve err = %v, want ErrUnknownMethod", err)
	}
}

// equivCase is one (graph, λ[, ii]) cell of the equivalence corpus.
type equivCase struct {
	name   string
	g      *mwl.Graph
	lambda int
}

// equivCorpus returns the Fig. 1 graph and a TGFF random graph, each at
// a tight and a relaxed latency constraint.
func equivCorpus(t *testing.T, n int) []equivCase {
	t.Helper()
	lib := mwl.DefaultLibrary()
	var out []equivCase
	fig1 := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(fig1, lib)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out,
		equivCase{"fig1/tight", fig1, lmin},
		equivCase{"fig1/relaxed", fig1, lmin + lmin/4},
	)
	rnd, err := mwl.GenerateRandom(mwl.RandomConfig{N: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rmin, err := mwl.MinLambda(rnd, lib)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out,
		equivCase{"tgff/tight", rnd, rmin},
		equivCase{"tgff/relaxed", rnd, rmin + rmin/4},
	)
	return out
}

// TestSolveMatchesAllocators: every registered method must produce a
// datapath identical (schedule, binding, kinds) to the underlying
// allocator it wraps on the equivalence corpus — Solve adds the
// envelope, never a different answer.
func TestSolveMatchesAllocators(t *testing.T) {
	ctx := context.Background()
	lib := mwl.DefaultLibrary()

	check := func(t *testing.T, method string, p mwl.Problem, legacy *mwl.Datapath) {
		t.Helper()
		sol, err := mwl.Get(method).Solve(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if !reflect.DeepEqual(sol.Datapath, legacy) {
			t.Fatalf("%s: Solve and legacy datapaths differ:\nnew: %+v\nold: %+v", method, sol.Datapath, legacy)
		}
		if sol.Area != legacy.Area(lib) {
			t.Fatalf("%s: Area %d != %d", method, sol.Area, legacy.Area(lib))
		}
		if sol.Makespan != legacy.Makespan(lib) {
			t.Fatalf("%s: Makespan %d != %d", method, sol.Makespan, legacy.Makespan(lib))
		}
	}

	for _, c := range equivCorpus(t, 9) {
		t.Run(c.name, func(t *testing.T) {
			p := mwl.Problem{Graph: c.g, Lambda: c.lambda}

			direct, _, err := core.Allocate(c.g, lib, c.lambda, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "dpalloc", p, direct)

			ts, _, err := twostage.Allocate(c.g, lib, c.lambda)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "twostage", p, ts)

			de, err := twostage.Descend(context.Background(), c.g, lib, c.lambda)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "descend", p, de)

			ii := c.lambda // sequential initiation: the paper's setting
			pipe, _, err := pipeline.Allocate(c.g, lib, c.lambda, ii, pipeline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pp := p
			pp.II = ii
			check(t, "pipelined", pp, pipe)
		})
	}

	// The exhaustive and ILP optima are slower; run them on the smaller
	// corpus cells only (Fig. 1 and a 7-op TGFF graph, tight λ).
	for _, c := range equivCorpus(t, 7)[:3] {
		if strings.HasPrefix(c.name, "tgff") {
			c.name = "small-" + c.name
		}
		t.Run(c.name+"/exact", func(t *testing.T) {
			p := mwl.Problem{Graph: c.g, Lambda: c.lambda}

			opt, _, err := exact.Allocate(c.g, lib, c.lambda, exact.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "optimal", p, opt)

			r, err := ilp.Solve(c.g, lib, c.lambda, ilp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "ilp", p, r.DP)
		})
	}
}

// TestSolveLimitsMatchDirect: the wire-level Limits map must reproduce
// the allocator's typed Options.Limits behaviour.
func TestSolveLimitsMatchDirect(t *testing.T) {
	lib := mwl.DefaultLibrary()
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 2 * lmin
	direct, _, err := core.Allocate(g, lib, lambda, core.Options{
		Limits: sched.Limits{mwl.Mul: 2, mwl.Add: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mwl.Solve(context.Background(), mwl.Problem{
		Graph: g, Lambda: lambda,
		Options: mwl.SolveOptions{Limits: map[string]int{"mul": 2, "add": 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Datapath, direct) {
		t.Fatal("fixed-limits datapaths differ")
	}
}

func TestSolveRejectsIIOnNonPipelined(t *testing.T) {
	g := mwl.Fig1Graph()
	for _, m := range []string{"dpalloc", "twostage", "descend", "optimal", "ilp"} {
		if _, err := mwl.Solve(context.Background(), mwl.Problem{Method: m, Graph: g, Lambda: 50, II: 4}); err == nil {
			t.Errorf("method %s accepted an initiation interval", m)
		}
	}
	if _, err := mwl.Solve(context.Background(), mwl.Problem{Method: "pipelined", Graph: g, Lambda: 50}); err == nil {
		t.Error("pipelined accepted II = 0")
	}
}

// TestPreCanceledContext: every method must fail fast with ctx.Err()
// when handed an already-canceled context.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := mwl.Fig1Graph()
	for _, m := range mwl.Methods() {
		if strings.HasPrefix(m, "test-") {
			continue // stubs from the registry tests
		}
		p := mwl.Problem{Method: m, Graph: g, Lambda: 50}
		if m == "pipelined" {
			p.II = 50
		}
		if _, err := mwl.Solve(ctx, p); !errors.Is(err, context.Canceled) {
			t.Errorf("method %s: err = %v, want context.Canceled", m, err)
		}
	}
}

// TestCancellationIsPrompt: cancelling a long solve on a large graph
// must return ctx.Err() quickly — the satellite acceptance criterion.
func TestCancellationIsPrompt(t *testing.T) {
	lib := mwl.DefaultLibrary()
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 14, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = mwl.Solve(ctx, mwl.Problem{Method: "ilp", Graph: g, Lambda: lmin + lmin/2})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancel took %v, want prompt return", elapsed)
	}
}

// TestTwoStageCancellationMidSolve: twostage used to ignore ctx past
// prepare, so a canceled request ran the full stage-2 branch-and-bound
// to the node cap. The binding loop now polls ctx: canceling a solve
// that takes hundreds of milliseconds must return within moments of the
// cancel. (descend's binding-loop cancellation is enforced
// deterministically in internal/twostage.)
func TestTwoStageCancellationMidSolve(t *testing.T) {
	lib := mwl.DefaultLibrary()
	// n=60/seed=3 drives stage 2 to its node cap: ~240 ms of binding
	// search on a fast machine, so a 2 ms cancel lands mid-solve with
	// two orders of magnitude to spare.
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = mwl.Solve(ctx, mwl.Problem{Method: "twostage", Graph: g, Lambda: lmin + lmin/3})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want context.Canceled", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancel took %v, want prompt return", elapsed)
	}
}

// TestDescendCancellationMidSchedule: descend shares twostage's
// stage-1 configuration search; a context canceled between polls must
// surface as context.Canceled, not be ignored until the solve ends.
func TestDescendCancellationMidSchedule(t *testing.T) {
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = mwl.Solve(ctx, mwl.Problem{Method: "descend", Graph: g, Lambda: lmin + lmin/3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled descend took %v", elapsed)
	}
}

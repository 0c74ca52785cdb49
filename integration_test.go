// Cross-method integration tests: every allocator must produce legal
// datapaths on shared workloads, and the quality ordering
// optimum ≤ heuristic must hold wherever the optimum is computable.
package mwl_test

import (
	"context"
	"testing"
	"time"

	mwl "repro"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/expt"
	"repro/internal/ilp"
	"repro/internal/tgff"
	"repro/internal/twostage"
)

func TestAllMethodsLegalOnRandomGraphs(t *testing.T) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{1, 3, 6, 9, 14} {
		graphs, err := tgff.Batch(n, 10, 7000, tgff.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range graphs {
			lmin, err := mwl.MinLambda(g, lib)
			if err != nil {
				t.Fatal(err)
			}
			for _, relax := range []float64{0, 0.15, 0.30} {
				lambda := expt.Lambda(lmin, relax)
				h, _, err := core.Allocate(g, lib, lambda, core.Options{})
				if err != nil {
					t.Fatalf("n=%d g=%d relax=%v heuristic: %v", n, gi, relax, err)
				}
				if err := h.Verify(g, lib, lambda); err != nil {
					t.Fatalf("n=%d g=%d heuristic illegal: %v", n, gi, err)
				}
				ts, _, err := twostage.Allocate(g, lib, lambda)
				if err != nil {
					t.Fatalf("n=%d g=%d twostage: %v", n, gi, err)
				}
				if err := ts.Verify(g, lib, lambda); err != nil {
					t.Fatalf("n=%d g=%d twostage illegal: %v", n, gi, err)
				}
				de, err := twostage.Descend(context.Background(), g, lib, lambda)
				if err != nil {
					t.Fatalf("n=%d g=%d descend: %v", n, gi, err)
				}
				if err := de.Verify(g, lib, lambda); err != nil {
					t.Fatalf("n=%d g=%d descend illegal: %v", n, gi, err)
				}
			}
		}
	}
}

func TestOptimumOrdering(t *testing.T) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{2, 4, 6, 8} {
		graphs, err := tgff.Batch(n, 8, 8000, tgff.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range graphs {
			lmin, err := mwl.MinLambda(g, lib)
			if err != nil {
				t.Fatal(err)
			}
			lambda := expt.Lambda(lmin, 0.2)
			h, _, err := core.Allocate(g, lib, lambda, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Exhaustive search with the heuristic's area priming the
			// incumbent and a node budget: instances whose search is
			// capped prove nothing and are skipped.
			opt, st, err := exact.Allocate(g, lib, lambda, exact.Options{
				UpperBound: h.Area(lib),
				NodeLimit:  500_000,
			})
			if st.Capped {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if opt.Area(lib) > h.Area(lib) {
				t.Fatalf("n=%d g=%d: optimum %d > heuristic %d", n, gi, opt.Area(lib), h.Area(lib))
			}
			// The ILP must agree with the exhaustive optimum.
			r, err := ilp.Solve(g, lib, lambda, ilp.Options{Incumbent: h, TimeLimit: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !r.TimedOut && r.Area != opt.Area(lib) {
				t.Fatalf("n=%d g=%d: ILP %d != exact %d", n, gi, r.Area, opt.Area(lib))
			}
		}
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	lib := mwl.DefaultLibrary()
	fir, err := mwl.FIRGraph(12, []int{4, 6, 8, 10, 12, 10, 8, 6, 4}, 24)
	if err != nil {
		t.Fatal(err)
	}
	iir, err := mwl.BiquadCascadeGraph(2, 10, [3]int{8, 6, 8}, [2]int{12, 12}, 24)
	if err != nil {
		t.Fatal(err)
	}
	horner, err := mwl.HornerGraph(10, []int{8, 6, 4, 12}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*mwl.Graph{
		"fig1": mwl.Fig1Graph(), "fir": fir, "iir": iir, "horner": horner,
	} {
		lmin, err := mwl.MinLambda(g, lib)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, relax := range []float64{0, 0.25, 0.5} {
			lambda := expt.Lambda(lmin, relax)
			dp, stats, err := core.Allocate(g, lib, lambda, core.Options{})
			if err != nil {
				t.Fatalf("%s relax=%v: %v", name, relax, err)
			}
			if err := dp.Verify(g, lib, lambda); err != nil {
				t.Fatalf("%s relax=%v illegal: %v", name, relax, err)
			}
			if stats.Kinds == 0 {
				t.Fatalf("%s: no kinds extracted", name)
			}
		}
	}
}

// TestSlackNeverHurtsMuch: the heuristic's area at a relaxed λ should
// very rarely exceed its area at a tight λ; allow slack on individual
// graphs but fail if the aggregate regresses.
func TestSlackAggregateImprovement(t *testing.T) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(12, 20, 9000, tgff.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var tight, relaxed int64
	for _, g := range graphs {
		lmin, err := mwl.MinLambda(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := core.Allocate(g, lib, lmin, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := core.Allocate(g, lib, expt.Lambda(lmin, 0.3), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tight += a.Area(lib)
		relaxed += b.Area(lib)
	}
	if relaxed > tight {
		t.Fatalf("aggregate area grew with slack: tight %d relaxed %d", tight, relaxed)
	}
}

// TestPublicAPISurface exercises the facade exactly as the package doc
// comment advertises.
func TestPublicAPISurface(t *testing.T) {
	g := mwl.NewGraph()
	x := g.AddOp("x", mwl.Mul, mwl.MulSig(12, 8))
	y := g.AddOp("y", mwl.Add, mwl.AddSig(16))
	if err := g.AddDep(x, y); err != nil {
		t.Fatal(err)
	}
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mwl.Solve(context.Background(), mwl.Problem{Graph: g, Lambda: lmin + 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Iterations < 1 || sol.Datapath.Render(g, lib) == "" {
		t.Fatal("facade results empty")
	}
	rnd, err := mwl.GenerateRandom(mwl.RandomConfig{N: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.N() != 5 {
		t.Fatal("GenerateRandom broken")
	}
}

package anneal

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
)

func TestAnnealProducesLegalDatapaths(t *testing.T) {
	lib := model.Default()
	for seed := int64(0); seed < 10; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 9, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lmin + lmin/5
		dp, st, err := AllocateCtx(context.Background(), g, lib, lambda, Options{Seed: seed, Moves: 4000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := dp.Verify(g, lib, lambda); err != nil {
			t.Fatalf("seed %d: illegal datapath: %v", seed, err)
		}
		if st.Moves == 0 || st.Accepted == 0 {
			t.Fatalf("seed %d: annealer did not search (stats %+v)", seed, st)
		}
	}
}

// TestAnnealSharesResources: with slack, annealing must beat the trivial
// one-instance-per-operation allocation on at least some graphs — the
// whole point of the merge moves.
func TestAnnealSharesResources(t *testing.T) {
	lib := model.Default()
	improved := 0
	for seed := int64(0); seed < 8; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 10, Seed: 40 + seed})
		if err != nil {
			t.Fatal(err)
		}
		var dedicated int64
		for _, o := range g.Ops() {
			dedicated += lib.Area(o.Spec.MinKind())
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		dp, _, err := AllocateCtx(context.Background(), g, lib, lmin+lmin/3, Options{Seed: seed, Moves: 6000})
		if err != nil {
			t.Fatal(err)
		}
		if dp.Area(lib) < dedicated {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("annealing never improved on dedicated per-operation instances")
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	lib := model.Default()
	g, err := tgff.Generate(tgff.Config{N: 11, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 42, Moves: 3000}
	a, sa, err := AllocateCtx(context.Background(), g, lib, lmin+4, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := AllocateCtx(context.Background(), g, lib, lmin+4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different datapaths")
	}
	if sa != sb {
		t.Fatalf("same seed produced different stats: %+v vs %+v", sa, sb)
	}
}

func TestAnnealInfeasibleLambda(t *testing.T) {
	lib := model.Default()
	g, err := tgff.Generate(tgff.Config{N: 6, Seed: 3, Shape: tgff.ShapeChain})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = AllocateCtx(context.Background(), g, lib, lmin-1, Options{Seed: 1, Moves: 100})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// countdownCtx cancels deterministically at the Nth Err poll, proving
// the inner loop polls ctx every proposal.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

func TestAnnealCancellation(t *testing.T) {
	lib := model.Default()
	g, err := tgff.Generate(tgff.Config{N: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background(), left: 10}
	_, st, err := AllocateCtx(ctx, g, lib, lmin+3, Options{Seed: 5, Moves: 100000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Moves > 10 {
		t.Fatalf("%d proposals evaluated after cancellation at poll 10", st.Moves)
	}
}

func TestAnnealEmptyGraphAndQuality(t *testing.T) {
	lib := model.Default()
	dp, _, err := AllocateCtx(context.Background(), dfg.New(), lib, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Instances) != 0 {
		t.Fatal("empty graph produced instances")
	}

	// On a small graph with slack, annealing should be in the same area
	// league as DPAlloc (not necessarily better, but never wildly worse
	// than 2x — it starts from the feasible dedicated allocation and
	// only accepts feasible states).
	g, err := tgff.Generate(tgff.Config{N: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	lambda := lmin + lmin/4
	h, _, err := core.AllocateCtx(context.Background(), g, lib, lambda, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adp, _, err := AllocateCtx(context.Background(), g, lib, lambda, Options{Seed: 7, Moves: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if adp.Area(lib) > 2*h.Area(lib) {
		t.Fatalf("anneal area %d vs heuristic %d: unreasonably worse", adp.Area(lib), h.Area(lib))
	}
}

// referenceSchedule is the annealer's list scheduler as first written,
// kept as the oracle for schedule: among ready operations (all
// predecessors placed) the lowest-rank one is placed next, and its start
// is the fixed point of pushing it past every occupied span of its
// instance that overlaps it, over the instance's spans in placement
// order.
func referenceSchedule(a *allocator, st *state) (start []int, makespan int) {
	type span struct{ s, e int }
	n := a.d.N()
	start = make([]int, n)
	finish := make([]int, n)
	indeg := append([]int(nil), a.indeg0...)
	busy := make([][]span, len(st.groups))
	var ready []dfg.OpID
	for id, deg := range indeg {
		if deg == 0 {
			ready = append(ready, dfg.OpID(id))
		}
	}
	for placed := 0; placed < n; placed++ {
		bi := 0
		for i := 1; i < len(ready); i++ {
			if st.prio[ready[i]] < st.prio[ready[bi]] {
				bi = i
			}
		}
		o := ready[bi]
		ready[bi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		g := st.groupOf[o]
		l := a.glat[g]
		t := 0
		for _, p := range a.d.Pred(o) {
			if finish[p] > t {
				t = finish[p]
			}
		}
		for changed := true; changed; {
			changed = false
			for _, sp := range busy[g] {
				if sp.s < t+l && t < sp.e {
					t = sp.e
					changed = true
				}
			}
		}
		busy[g] = append(busy[g], span{t, t + l})
		start[o] = t
		finish[o] = t + l
		if t+l > makespan {
			makespan = t + l
		}
		for _, s := range a.d.Succ(o) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return start, makespan
}

// TestScheduleMatchesReference walks random move sequences — rebinds,
// merges, splits and priority swaps, each kept or undone at random —
// and checks after every step that the scheduler's start times and
// makespan equal the reference scheduler's on the current state.
func TestScheduleMatchesReference(t *testing.T) {
	lib := model.Default()
	sizes := []int{4, 5, 8, 12, 16, 24, 32, 48, 64, 96}
	seeds, steps := 6, 300
	if testing.Short() {
		seeds, steps = 2, 100
	}
	for _, n := range sizes {
		for seed := int64(0); seed < int64(seeds); seed++ {
			t.Run(fmt.Sprintf("N=%d/seed=%d", n, seed), func(t *testing.T) {
				cfg := tgff.Config{N: n, Seed: seed}
				if seed%3 == 1 {
					cfg.Shape = tgff.ShapeForkJoin
				}
				g, err := tgff.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				a, cur, err := newAllocator(g, lib, 1<<30)
				if err != nil {
					t.Fatal(err)
				}
				rnd := rand.New(rand.NewSource(seed))
				swaps := 0
				for step := 0; step < steps; step++ {
					mv, ok := a.propose(rnd, cur)
					if !ok {
						continue
					}
					if mv.kind == mvSwap {
						swaps++
					}
					if rnd.Intn(3) == 0 {
						a.undo(cur, mv)
					}
					got := a.schedule(cur)
					wantStart, want := referenceSchedule(a, cur)
					if got != want || !reflect.DeepEqual(a.start, wantStart) {
						t.Fatalf("step %d (move %d): makespan %d, start %v; reference %d, %v",
							step, mv.kind, got, a.start, want, wantStart)
					}
				}
				if swaps == 0 && n > 1 {
					t.Fatal("no swap was drawn")
				}
			})
		}
	}
}

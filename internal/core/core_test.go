package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tgff"
)

func TestAllocateEmpty(t *testing.T) {
	dp, _, err := Allocate(dfg.New(), model.Default(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dp.Instances) != 0 {
		t.Fatal("non-empty datapath for empty graph")
	}
}

func TestAllocateSingleOp(t *testing.T) {
	d := dfg.New()
	d.AddOp("m", model.Mul, model.Sig(8, 8))
	lib := model.Default()
	dp, stats, err := Allocate(d, lib, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dp.Area(lib) != 64 || dp.Makespan(lib) != 2 {
		t.Fatalf("area %d makespan %d", dp.Area(lib), dp.Makespan(lib))
	}
	if stats.Iterations != 1 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
}

func TestAllocateInfeasibleLambda(t *testing.T) {
	d := dfg.New()
	d.AddOp("m", model.Mul, model.Sig(8, 8)) // needs 2 cycles minimum
	_, _, err := Allocate(d, model.Default(), 1, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestAllocateRejectsCyclicGraph(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("", model.Add, model.AddSig(8))
	b := d.AddOp("", model.Add, model.AddSig(8))
	d.AddDep(a, b)
	d.AddDep(b, a)
	if _, _, err := Allocate(d, model.Default(), 10, Options{}); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

// TestSlackEnablesSharing is the paper's core claim in miniature: with a
// relaxed λ, a small multiply shares the big multiplier (longer latency
// but no extra area); with tight λ it needs its own fast multiplier.
func TestSlackEnablesSharing(t *testing.T) {
	d := dfg.New()
	lib := model.Default()
	// Two independent multiplies: big 20x18 (5 cy) and small 8x8 (2 cy
	// native, 5 cy on the big resource).
	d.AddOp("big", model.Mul, model.Sig(20, 18))
	d.AddOp("small", model.Mul, model.Sig(8, 8))

	lmin, err := MinLambda(d, lib)
	if err != nil {
		t.Fatal(err)
	}
	if lmin != 5 {
		t.Fatalf("λ_min = %d, want 5", lmin)
	}

	// Relaxed λ = 10: serialize both on the 20x18 multiplier. Area 360.
	relaxed, _, err := Allocate(d, lib, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := relaxed.Verify(d, lib, 10); err != nil {
		t.Fatal(err)
	}
	if got := relaxed.Area(lib); got != 360 {
		t.Errorf("relaxed area = %d, want 360 (shared big multiplier)", got)
	}

	// Tight λ = 5: both must run in parallel, two resources, area 424.
	tight, _, err := Allocate(d, lib, lmin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Verify(d, lib, lmin); err != nil {
		t.Fatal(err)
	}
	if got := tight.Area(lib); got != 424 {
		t.Errorf("tight area = %d, want 424 (dedicated resources)", got)
	}
}

// TestMonotoneLambda: area should never increase as λ relaxes on the same
// graph... the heuristic does not guarantee monotonicity op-by-op, but
// the relaxed solution must never be worse than the tight one on this
// simple family.
func TestLambdaSweepLegal(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	lib := model.Default()
	for trial := 0; trial < 40; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(14))
		lmin, err := MinLambda(d, lib)
		if err != nil {
			t.Fatal(err)
		}
		for _, relax := range []float64{0, 0.1, 0.2, 0.3, 1.0} {
			lambda := lmin + int(float64(lmin)*relax)
			dp, _, err := Allocate(d, lib, lambda, Options{})
			if err != nil {
				t.Fatalf("trial %d λ=%d: %v", trial, lambda, err)
			}
			if err := dp.Verify(d, lib, lambda); err != nil {
				t.Fatalf("trial %d λ=%d: %v", trial, lambda, err)
			}
		}
	}
}

func TestAllocateWithResourceLimits(t *testing.T) {
	d := dfg.New()
	lib := model.Default()
	// Four independent 8x8 multiplies, one multiplier: must serialize.
	for i := 0; i < 4; i++ {
		d.AddOp("", model.Mul, model.Sig(8, 8))
	}
	dp, _, err := Allocate(d, lib, 8, Options{Limits: sched.Limits{model.Mul: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Verify(d, lib, 8); err != nil {
		t.Fatal(err)
	}
	if len(dp.Instances) != 1 {
		t.Fatalf("%d instances under limit 1", len(dp.Instances))
	}
	// λ too tight for serialization and limits: infeasible.
	if _, _, err := Allocate(d, lib, 4, Options{Limits: sched.Limits{model.Mul: 1}}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestAblationOptionsStillLegal(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	lib := model.Default()
	opts := []Options{
		{DisableGrowth: true},
		{DisableShrink: true},
		{DisableClosure: true},
		{DisableGrowth: true, DisableShrink: true, DisableClosure: true},
	}
	for trial := 0; trial < 20; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(12))
		lmin, err := MinLambda(d, lib)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lmin + lmin/5
		base, _, err := Allocate(d, lib, lambda, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Verify(d, lib, lambda); err != nil {
			t.Fatal(err)
		}
		for i, o := range opts {
			dp, _, err := Allocate(d, lib, lambda, o)
			if err != nil {
				t.Fatalf("ablation %d: %v", i, err)
			}
			if err := dp.Verify(d, lib, lambda); err != nil {
				t.Fatalf("ablation %d: %v", i, err)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d := dfg.New()
	o1 := d.AddOp("", model.Mul, model.Sig(25, 25))
	o2 := d.AddOp("", model.Mul, model.Sig(20, 18))
	d.AddDep(o1, o2)
	lib := model.Default()
	// λ_min = 12: forces refinement of o2 away from the 25x25 kind.
	dp, stats, err := Allocate(d, lib, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Verify(d, lib, 12); err != nil {
		t.Fatal(err)
	}
	if stats.Refinements < 1 || stats.EdgesDeleted < 1 {
		t.Errorf("expected refinement to happen: %+v", stats)
	}
	if stats.Iterations < 2 {
		t.Errorf("expected at least two rounds: %+v", stats)
	}
	if stats.Kinds != 2 {
		t.Errorf("kinds = %d, want 2", stats.Kinds)
	}
}

// TestAllocateCancellationAtScale: a full 1000-operation solve takes
// seconds on this corpus; cancelling the context must cut it off within
// a round or two of the inner loop, not after the configuration ladder
// has run to completion — on the one-at-a-time search and on the
// speculative one, whose ladders must all have exited by the time it
// returns.
func TestAllocateCancellationAtScale(t *testing.T) {
	lib := model.Default()
	g, err := tgff.Generate(tgff.Config{N: 1000, Seed: 2001})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	lambda := lmin + lmin/5
	s := newDPSearch(g, lib, lambda, Options{})
	for _, run := range []struct {
		name  string
		solve func(context.Context) error
	}{
		{"AllocateCtx", func(ctx context.Context) error {
			_, _, err := AllocateCtx(ctx, g, lib, lambda, Options{})
			return err
		}},
		{"sequential", func(ctx context.Context) error {
			_, _, err := s.sequential(ctx)
			return err
		}},
		{"speculative", func(ctx context.Context) error {
			_, _, err := s.speculative(ctx, 4, nil)
			return err
		}},
	} {
		goroutines := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		t0 := time.Now()
		err := run.solve(ctx)
		elapsed := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", run.name, err)
		}
		// Generous bound: a single scheduling round at N=1000 is tens of
		// milliseconds, the full solve is seconds. Well under the full
		// solve proves the loops poll ctx rather than checking only on
		// entry.
		if elapsed > 3*time.Second {
			t.Fatalf("%s: cancellation took %v; ctx not polled promptly", run.name, elapsed)
		}
		// A ladder signals the search's WaitGroup as its last act, so it
		// may still be exiting just after the search returns.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%s: %d goroutines a second after the solve returned, %d before", run.name, n, goroutines)
		}
	}
}

// TestRefineBatchKnob: on a graph large enough to trip the automatic
// batching, the paper-exact single-victim path (RefineBatch=1), the
// automatic batch path, and an explicit batch width all produce legal
// datapaths for the same λ.
func TestRefineBatchKnob(t *testing.T) {
	lib := model.Default()
	g, err := tgff.Generate(tgff.Config{N: BatchMinOps + 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	lambda := lmin + lmin/5
	for _, opt := range []Options{{RefineBatch: 1}, {}, {RefineBatch: 8}} {
		dp, _, err := Allocate(g, lib, lambda, opt)
		if err != nil {
			t.Fatalf("RefineBatch=%d: %v", opt.RefineBatch, err)
		}
		if err := dp.Verify(g, lib, lambda); err != nil {
			t.Fatalf("RefineBatch=%d: %v", opt.RefineBatch, err)
		}
	}
}

func randomDAG(rnd *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	for i := 0; i < n; i++ {
		if rnd.Intn(2) == 0 {
			g.AddOp("", model.Add, model.AddSig(4+rnd.Intn(20)))
		} else {
			g.AddOp("", model.Mul, model.Sig(4+rnd.Intn(20), 4+rnd.Intn(20)))
		}
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 2; k++ {
			if rnd.Intn(3) == 0 {
				g.AddDep(dfg.OpID(rnd.Intn(i)), dfg.OpID(i))
			}
		}
	}
	return g
}

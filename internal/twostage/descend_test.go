package twostage

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
)

func TestDescendEmpty(t *testing.T) {
	dp, err := Descend(context.Background(), dfg.New(), model.Default(), 0)
	if err != nil || len(dp.Instances) != 0 {
		t.Fatalf("%v %v", dp, err)
	}
}

func TestDescendLegalOnRandomGraphs(t *testing.T) {
	lib := model.Default()
	for seed := int64(0); seed < 50; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lmin + lmin/5
		dp, err := Descend(context.Background(), g, lib, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.Verify(g, lib, lambda); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDescendNeverBeatsOptimalTwoStage(t *testing.T) {
	// The greedy must be no better than the optimal B&B on the same
	// schedule (both use the same stage 1, which is deterministic).
	lib := model.Default()
	for seed := int64(0); seed < 40; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		lambda := lmin + lmin/4
		greedy, err := Descend(context.Background(), g, lib, lambda)
		if err != nil {
			t.Fatal(err)
		}
		opt, stats, err := Allocate(g, lib, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Capped {
			continue // not a proven optimum; skip the comparison
		}
		if greedy.Area(lib) < opt.Area(lib) {
			t.Fatalf("seed %d: greedy area %d beats optimal %d", seed, greedy.Area(lib), opt.Area(lib))
		}
	}
}

func TestDescendCyclicRejected(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("", model.Add, model.AddSig(8))
	b := d.AddOp("", model.Add, model.AddSig(8))
	d.AddDep(a, b)
	d.AddDep(b, a)
	if _, err := Descend(context.Background(), d, model.Default(), 10); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestDescendCanceledInBindingLoop(t *testing.T) {
	g, err := tgff.Generate(tgff.Config{N: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default()
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	// Let the stage-1 schedule poll pass; trip at the greedy binding
	// loop's first poll.
	ctx := &countdownCtx{Context: context.Background(), left: 1}
	dp, err := Descend(ctx, g, lib, lmin+lmin/3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dp != nil {
		t.Fatal("canceled solve returned a datapath")
	}
}

func TestDescendPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := tgff.Generate(tgff.Config{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Descend(ctx, g, model.Default(), 50); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

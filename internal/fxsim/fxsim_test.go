package fxsim

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
	"repro/internal/twostage"
)

func TestMask(t *testing.T) {
	if mask(0xFF, 4) != 0xF {
		t.Error("mask(0xFF,4)")
	}
	if mask(0xFF, 64) != 0xFF {
		t.Error("mask w=64")
	}
	if mask(0, 8) != 0 {
		t.Error("mask zero")
	}
}

func TestComputeSemantics(t *testing.T) {
	add := model.OpSpec{Type: model.Add, Sig: model.AddSig(4)}
	if got := compute(add, 9, 8); got != 1 { // 17 mod 16
		t.Errorf("add overflow: %d", got)
	}
	sub := model.OpSpec{Type: model.Sub, Sig: model.AddSig(4)}
	if got := compute(sub, 3, 5); got != 14 { // -2 mod 16
		t.Errorf("sub underflow: %d", got)
	}
	mul := model.OpSpec{Type: model.Mul, Sig: model.Sig(4, 4)}
	if got := compute(mul, 15, 15); got != 225 { // full 8-bit product
		t.Errorf("mul: %d", got)
	}
}

func TestReferenceChain(t *testing.T) {
	// (a*b) + c with a=3 (4b), b=5 (4b), c=7: product 15... then add.
	d := dfg.New()
	m := d.AddOp("m", model.Mul, model.Sig(4, 4))
	a := d.AddOp("a", model.Add, model.AddSig(10))
	if err := d.AddDep(m, a); err != nil {
		t.Fatal(err)
	}
	in := Inputs{m: {3, 5}, a: {0, 7}}
	got, err := Reference(d, in)
	if err != nil {
		t.Fatal(err)
	}
	if got[m] != 15 {
		t.Errorf("product = %d", got[m])
	}
	// Add slot 0 <- product (truncated to 10 bits), slot 1 <- 7.
	if got[a] != 22 {
		t.Errorf("sum = %d", got[a])
	}
}

func TestTruncationOnNarrowSlot(t *testing.T) {
	// The 4x4 product (8 bits) feeds a 3-bit adder: low 3 bits kept.
	d := dfg.New()
	m := d.AddOp("m", model.Mul, model.Sig(4, 4))
	a := d.AddOp("a", model.Add, model.AddSig(3))
	if err := d.AddDep(m, a); err != nil {
		t.Fatal(err)
	}
	in := Inputs{m: {15, 15}} // 225 = 0b11100001 → low 3 bits 0b001
	got, err := Reference(d, in)
	if err != nil {
		t.Fatal(err)
	}
	if got[a] != 1 {
		t.Errorf("truncated sum = %d, want 1", got[a])
	}
}

func allocators(t *testing.T, lib *model.Library) map[string]func(*dfg.Graph, int) (*datapath.Datapath, error) {
	t.Helper()
	return map[string]func(*dfg.Graph, int) (*datapath.Datapath, error){
		"heuristic": func(g *dfg.Graph, lambda int) (*datapath.Datapath, error) {
			dp, _, err := core.Allocate(g, lib, lambda, core.Options{})
			return dp, err
		},
		"twostage": func(g *dfg.Graph, lambda int) (*datapath.Datapath, error) {
			dp, _, err := twostage.Allocate(g, lib, lambda)
			return dp, err
		},
		"descend": func(g *dfg.Graph, lambda int) (*datapath.Datapath, error) {
			return twostage.Descend(context.Background(), g, lib, lambda)
		},
	}
}

// TestValueEquivalenceAcrossAllocators is the flagship property: every
// allocator's datapath computes exactly the reference values on random
// graphs with random inputs — sharing wider resources never changes
// results.
func TestValueEquivalenceAcrossAllocators(t *testing.T) {
	lib := model.Default()
	rnd := rand.New(rand.NewSource(99))
	for seed := int64(0); seed < 30; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := g.MinMakespan(lib)
		if err != nil {
			t.Fatal(err)
		}
		in := Inputs{}
		for i := 0; i < g.N(); i++ {
			in[dfg.OpID(i)] = [2]uint64{rnd.Uint64(), rnd.Uint64()}
		}
		for name, alloc := range allocators(t, lib) {
			for _, lambda := range []int{lmin, lmin + lmin/3} {
				dp, err := alloc(g, lambda)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", name, seed, err)
				}
				if err := CheckEquivalence(g, lib, dp, in); err != nil {
					t.Fatalf("%s seed=%d λ=%d: %v", name, seed, lambda, err)
				}
			}
		}
	}
}

func TestRunDetectsPrematureStart(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("a", model.Mul, model.Sig(8, 8))
	b := d.AddOp("b", model.Mul, model.Sig(8, 8))
	if err := d.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	lib := model.Default()
	kind := model.Kind{Class: model.Mul, Sig: model.Sig(8, 8)}
	dp := &datapath.Datapath{
		Start: []int{0, 1}, // b starts before a's 2-cycle latency elapses
		Instances: []datapath.Instance{
			{Kind: kind, Ops: []dfg.OpID{a}},
			{Kind: kind, Ops: []dfg.OpID{b}},
		},
		InstOf: []int{0, 1},
	}
	_, _, err := Run(d, lib, dp, nil)
	if err == nil || !strings.Contains(err.Error(), "before predecessor") {
		t.Fatalf("premature start not detected: %v", err)
	}
}

func TestRunDetectsInstanceConflict(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("a", model.Mul, model.Sig(8, 8))
	b := d.AddOp("b", model.Mul, model.Sig(8, 8))
	lib := model.Default()
	kind := model.Kind{Class: model.Mul, Sig: model.Sig(8, 8)}
	dp := &datapath.Datapath{
		Start:     []int{0, 1}, // overlap on one instance
		Instances: []datapath.Instance{{Kind: kind, Ops: []dfg.OpID{a, b}}},
		InstOf:    []int{0, 0},
	}
	_, _, err := Run(d, lib, dp, nil)
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("instance conflict not detected: %v", err)
	}
}

func TestRunDetectsNarrowInstance(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("a", model.Mul, model.Sig(8, 8))
	lib := model.Default()
	dp := &datapath.Datapath{
		Start:     []int{0},
		Instances: []datapath.Instance{{Kind: model.Kind{Class: model.Mul, Sig: model.Sig(4, 4)}, Ops: []dfg.OpID{a}}},
		InstOf:    []int{0},
	}
	_, _, err := Run(d, lib, dp, nil)
	if err == nil || !strings.Contains(err.Error(), "narrow") {
		t.Fatalf("narrow instance not detected: %v", err)
	}
}

func TestRunShapeMismatch(t *testing.T) {
	d := dfg.New()
	d.AddOp("a", model.Mul, model.Sig(8, 8))
	lib := model.Default()
	dp := &datapath.Datapath{Start: []int{0, 1}, InstOf: []int{0, 0}}
	if _, _, err := Run(d, lib, dp, nil); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestTraceOrdering(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("a", model.Mul, model.Sig(8, 8))
	b := d.AddOp("b", model.Add, model.AddSig(8))
	if err := d.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	lib := model.Default()
	dp, _, err := core.Allocate(d, lib, 10, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, traces, err := Run(d, lib, dp, Inputs{a: {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("%d traces", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Start < traces[i-1].Start {
			t.Fatal("traces not ordered by start")
		}
	}
	if traces[0].Value != 6 {
		t.Errorf("trace value = %d", traces[0].Value)
	}
}

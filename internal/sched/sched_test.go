package sched

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/wcg"
)

func build(t *testing.T, d *dfg.Graph) *wcg.Graph {
	t.Helper()
	g, err := wcg.Build(d, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkSchedule verifies precedence legality of a schedule under the
// scheduling latencies (the upper bounds).
func checkSchedule(t *testing.T, g *wcg.Graph, r Result) {
	t.Helper()
	L := g.UpperLatencies()
	for i := 0; i < g.D.N(); i++ {
		id := dfg.OpID(i)
		if r.Start[i] < 0 {
			t.Fatalf("op %d starts at %d", i, r.Start[i])
		}
		for _, p := range g.D.Pred(id) {
			if r.Start[p]+L(p) > r.Start[i] {
				t.Fatalf("precedence violated: %d(start %d, lat %d) -> %d(start %d)",
					p, r.Start[p], L(p), i, r.Start[i])
			}
		}
		if f := r.Start[i] + L(id); f > r.Makespan {
			t.Fatalf("makespan %d below finish of op %d (%d)", r.Makespan, i, f)
		}
	}
}

func TestUnconstrainedIsASAP(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(16))
		g := build(t, d)
		r, err := List(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSchedule(t, g, r)
		asap, ms, err := d.ASAP(g.UpperLatencies())
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan != ms {
			t.Fatalf("unconstrained makespan %d != ASAP %d", r.Makespan, ms)
		}
		for i := range asap {
			if r.Start[i] != asap[i] {
				t.Fatalf("start[%d] = %d, ASAP %d", i, r.Start[i], asap[i])
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := build(t, dfg.New())
	r, err := List(g, Limits{model.Mul: 1})
	if err != nil || r.Makespan != 0 {
		t.Fatalf("empty graph: %v %v", r, err)
	}
}

func TestSchedulingSetCovers(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(16))
		g := build(t, d)
		set := new(Scratch).SchedulingSet(g)
		for i := 0; i < d.N(); i++ {
			ok := false
			for _, ki := range set {
				if g.Compatible(dfg.OpID(i), ki) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("scheduling set %v misses op %d", set, i)
			}
		}
		// Minimality in the easy case: all same class single join top kind.
	}
}

func TestSchedulingSetSmallestCase(t *testing.T) {
	// All multiplications covered by the join-top kind: |S| must be 1.
	d := dfg.New()
	d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddOp("", model.Mul, model.Sig(12, 4))
	d.AddOp("", model.Mul, model.Sig(10, 10))
	g := build(t, d)
	set := new(Scratch).SchedulingSet(g)
	if len(set) != 1 {
		t.Fatalf("scheduling set = %v, want single top kind", set)
	}
	if g.Kinds[set[0]].Sig != model.Sig(12, 10) {
		t.Fatalf("scheduling set kind = %v, want mul 12x10", g.Kinds[set[0]])
	}
}

// TestEqn3SerializesUnderUnitLimit: two independent equal multiplies, one
// multiplier allowed. Eqn. 3 must serialize them.
func TestEqn3SerializesUnderUnitLimit(t *testing.T) {
	d := dfg.New()
	d.AddOp("m1", model.Mul, model.Sig(8, 8))
	d.AddOp("m2", model.Mul, model.Sig(8, 8))
	g := build(t, d)
	r, err := List(g, Limits{model.Mul: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, g, r)
	// Both ops are 2 cycles; serialized makespan is 4.
	if r.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4 (serialized)", r.Makespan)
	}
}

func TestEqn3AllowsParallelWithTwo(t *testing.T) {
	d := dfg.New()
	d.AddOp("m1", model.Mul, model.Sig(8, 8))
	d.AddOp("m2", model.Mul, model.Sig(8, 8))
	g := build(t, d)
	r, err := List(g, Limits{model.Mul: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 2 {
		t.Fatalf("makespan = %d, want 2 (parallel)", r.Makespan)
	}
}

// TestEqn3CatchesKindConflicts reproduces the paper's §2.2 motivating
// example: after refinement pins two sequential multiplies to *disjoint*
// kinds, one multiplier is no longer enough even though the classical
// Eqn. 2 is satisfied. Eqn. 3 must reject; Eqn. 2 must (wrongly) accept.
func TestEqn3CatchesKindConflicts(t *testing.T) {
	d := dfg.New()
	o1 := d.AddOp("o1", model.Mul, model.Sig(25, 25))
	o2 := d.AddOp("o2", model.Mul, model.Sig(20, 18))
	if err := d.AddDep(o1, o2); err != nil {
		t.Fatal(err)
	}
	g := build(t, d)
	// Refine o2 so its only kind is 20x18 (deleting the {o2, 25x25} edge,
	// as in the paper's example where the edge is lost to latency).
	if n := g.DeleteMaxLatencyEdges(o2); n != 1 {
		t.Fatalf("setup deletion removed %d edges", n)
	}
	if _, err := List(g, Limits{model.Mul: 1}); !errors.Is(err, ErrResourceInfeasible) {
		t.Fatalf("Eqn. 3 accepted an unbindable schedule: err = %v", err)
	}
	// Two multipliers suffice.
	r, err := List(g, Limits{model.Mul: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, g, r)
	// Eqn. 2 wrongly accepts one multiplier (the ops never overlap).
	if _, err := ListEqn2(g, Limits{model.Mul: 1}); err != nil {
		t.Fatalf("Eqn. 2 rejected: %v (expected the classical constraint to be fooled)", err)
	}
}

// TestEqn3AtLeastAsStrictAsEqn2: property (a) of the reconstruction —
// whenever Eqn. 3 accepts a placement sequence, the Eqn. 2 makespan is
// no longer than the Eqn. 3 makespan can't be asserted directly, but
// acceptance implies Eqn. 2 feasibility: we check that any Eqn. 3
// schedule also satisfies per-step class counting.
func TestEqn3AtLeastAsStrictAsEqn2(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(12))
		g := build(t, d)
		limits := Limits{model.Mul: 1 + rnd.Intn(2), model.Add: 1 + rnd.Intn(2)}
		r, err := List(g, limits)
		if errors.Is(err, ErrResourceInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkSchedule(t, g, r)
		// Count per-step concurrency per class; must respect limits.
		L := g.UpperLatencies()
		for y, limit := range limits {
			use := make(map[int]int)
			for i := 0; i < d.N(); i++ {
				if d.Op(dfg.OpID(i)).Spec.Type.HardwareClass() != y {
					continue
				}
				for s := r.Start[i]; s < r.Start[i]+L(dfg.OpID(i)); s++ {
					use[s]++
				}
			}
			for s, u := range use {
				if u > limit {
					t.Fatalf("Eqn.3 schedule violates Eqn.2 at step %d: %d > %d %v", s, u, limit, y)
				}
			}
		}
	}
}

// TestEqn3ExactWithFullInfo: property (c) — when every op has exactly one
// compatible kind, Eqn. 3's bound is exact instance counting per kind.
func TestEqn3ExactWithFullInfo(t *testing.T) {
	d := dfg.New()
	// Two ops of one kind, two of another, all independent.
	d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddOp("", model.Mul, model.Sig(8, 8))
	d.AddOp("", model.Mul, model.Sig(16, 16))
	d.AddOp("", model.Mul, model.Sig(16, 16))
	g := build(t, d)
	// Prune so each op keeps only its own kind (full wordlength info).
	for o := 0; o < 4; o++ {
		for g.Reducible(dfg.OpID(o)) {
			g.DeleteMaxLatencyEdges(dfg.OpID(o))
		}
	}
	// One multiplier total: must be infeasible (two disjoint kinds needed),
	// even though the ops could be fully serialized — this is exactly the
	// cross-step conflict Eqn. 2 cannot see.
	if _, err := List(g, Limits{model.Mul: 1}); !errors.Is(err, ErrResourceInfeasible) {
		t.Fatalf("want infeasible with 1 multiplier, got %v", err)
	}
	if _, err := ListEqn2(g, Limits{model.Mul: 1}); err != nil {
		t.Fatalf("Eqn. 2 should (wrongly) accept 1 multiplier, got %v", err)
	}
	// Three multipliers: feasible even with the greedy running both
	// 16x16 ops in parallel (peak 2) plus one 8x8 instance (peak 1).
	r, err := List(g, Limits{model.Mul: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, g, r)
	// Note: Limits{Mul: 2} is feasible in principle (serialize within
	// each kind) but the greedy list scheduler spends the whole budget on
	// step-0 parallelism; that myopia is inherent to list scheduling
	// under a schedule-global constraint and matches the paper's greedy.
	if _, err := List(g, Limits{model.Mul: 2}); !errors.Is(err, ErrResourceInfeasible) {
		t.Fatalf("greedy behaviour changed: limit 2 now gives %v (update this test)", err)
	}
}

func TestListRejectsCycle(t *testing.T) {
	d := dfg.New()
	a := d.AddOp("", model.Add, model.AddSig(8))
	b := d.AddOp("", model.Add, model.AddSig(8))
	d.AddDep(a, b)
	// Build the wcg first (Build validates nothing about cycles), then
	// inject the back edge.
	g := build(t, d)
	d.AddDep(b, a)
	if _, err := List(g, nil); err == nil {
		t.Fatal("cyclic graph scheduled")
	}
}

func TestPrioritiesCriticalFirst(t *testing.T) {
	// A long chain and an independent cheap op with one adder: the chain
	// head must be scheduled first.
	d := dfg.New()
	a := d.AddOp("a", model.Add, model.AddSig(8))
	b := d.AddOp("b", model.Add, model.AddSig(8))
	c := d.AddOp("c", model.Add, model.AddSig(8))
	d.AddDep(a, b)
	d.AddDep(b, c)
	x := d.AddOp("x", model.Add, model.AddSig(8))
	g := build(t, d)
	r, err := List(g, Limits{model.Add: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSchedule(t, g, r)
	if r.Start[a] != 0 {
		t.Errorf("critical chain head deferred to %d", r.Start[a])
	}
	if r.Start[x] == 0 {
		t.Errorf("non-critical op scheduled before chain head")
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

func TestLcmGcd(t *testing.T) {
	if gcd(12, 18) != 6 {
		t.Error("gcd broken")
	}
	if lcm(4, 6) != 12 {
		t.Error("lcm broken")
	}
	if lcm(1, 7) != 7 || lcm(7, 1) != 7 {
		t.Error("lcm identity broken")
	}
}

package lp

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestBealeCycling is the canonical cycling example (Beale 1955) in the
// form that loops forever under naive Dantzig pricing without an
// anti-cycling rule; the solver must terminate at the optimum.
func TestBealeCycling(t *testing.T) {
	p := &Problem{
		NumVars:   4,
		Objective: []float64{-0.75, 150, -0.02, 6},
		Cons: []Constraint{
			{Idx: []int{0, 1, 2, 3}, Coef: []float64{0.25, -60, -0.04, 9}, Sense: LE, RHS: 0},
			{Idx: []int{0, 1, 2, 3}, Coef: []float64{0.5, -90, -0.02, 3}, Sense: LE, RHS: 0},
			{Idx: []int{2}, Coef: []float64{1}, Sense: LE, RHS: 1},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, -0.05) {
		t.Fatalf("%+v", s)
	}
}

// TestDegenerateTies exercises heavy primal degeneracy: many rows
// binding at the origin.
func TestDegenerateTies(t *testing.T) {
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-1, -1, -1},
		Cons: []Constraint{
			{Idx: []int{0, 1}, Coef: []float64{1, 1}, Sense: LE, RHS: 0},
			{Idx: []int{1, 2}, Coef: []float64{1, 1}, Sense: LE, RHS: 0},
			{Idx: []int{0, 2}, Coef: []float64{1, 1}, Sense: LE, RHS: 0},
			{Idx: []int{0, 1, 2}, Coef: []float64{1, 1, 1}, Sense: LE, RHS: 0},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, 0) {
		t.Fatalf("%+v", s)
	}
}

// TestInfeasibleEqualitySystem: inconsistent equality rows must be
// detected by phase 1, not mis-reported as optimal or unbounded.
func TestInfeasibleEqualitySystem(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Cons: []Constraint{
			{Idx: []int{0, 1}, Coef: []float64{1, 1}, Sense: EQ, RHS: 1},
			{Idx: []int{0, 1}, Coef: []float64{2, 2}, Sense: EQ, RHS: 3},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

// TestRedundantEquality: consistent but redundant EQ rows leave a
// singular-looking phase-1 state that must still solve.
func TestRedundantEquality(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Cons: []Constraint{
			{Idx: []int{0, 1}, Coef: []float64{1, 1}, Sense: EQ, RHS: 4},
			{Idx: []int{0, 1}, Coef: []float64{2, 2}, Sense: EQ, RHS: 8},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Obj, 4) || !almost(s.X[0], 4) {
		t.Fatalf("%+v", s)
	}
}

// TestUnboundedMixed: bounded variables must not mask the unbounded
// direction of an unbounded one.
func TestUnboundedMixed(t *testing.T) {
	p := &Problem{
		NumVars:   3,
		Objective: []float64{1, -1, 2}, // x1 maximised, no upper bound
		Upper:     []float64{5, math.Inf(1), 5},
		Cons: []Constraint{
			{Idx: []int{0, 2}, Coef: []float64{1, 1}, Sense: LE, RHS: 6},
		},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

// TestBoundFlips: a pure bound-structured LP solved entirely by bound
// flips, no constraint rows at all.
func TestBoundFlips(t *testing.T) {
	p := &Problem{
		NumVars:   4,
		Objective: []float64{-1, 2, -3, 0},
		Lower:     []float64{1, 1, 0, 2},
		Upper:     []float64{4, 7, 2, 2},
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// x0→4, x1→1, x2→2, x3 fixed at 2.
	if s.Status != Optimal || !almost(s.Obj, -4+2-6) {
		t.Fatalf("%+v", s)
	}
	if !almost(s.X[0], 4) || !almost(s.X[1], 1) || !almost(s.X[2], 2) || !almost(s.X[3], 2) {
		t.Fatalf("x = %v", s.X)
	}
}

// TestCanceledStatus: a pre-canceled context must surface the distinct
// Canceled status, with the error wrapping both ErrCanceled and the
// context's error.
func TestCanceledStatus(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Cons: []Constraint{
			{Idx: []int{0, 1}, Coef: []float64{1, 1}, Sense: GE, RHS: 2},
		},
	}
	s, err := SolveCtx(ctx, p)
	if err == nil {
		t.Fatal("want error from canceled context")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want wrapping ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapping context.Canceled", err)
	}
	if s == nil || s.Status != Canceled {
		t.Errorf("solution = %+v, want Status Canceled", s)
	}
	if Canceled.String() != "canceled" || StatusCanceled != Canceled {
		t.Error("Canceled status identity broken")
	}
}

// TestWarmStartAfterBoundChange mimics one branch-and-bound edge: solve,
// tighten one variable's bounds, re-solve from the parent basis, and
// check against a cold solve of the same child.
func TestWarmStartAfterBoundChange(t *testing.T) {
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-10, -13, -7},
		Cons: []Constraint{
			{Idx: []int{0, 1, 2}, Coef: []float64{3, 4, 2}, Sense: LE, RHS: 6},
		},
		Upper: []float64{1, 1, 1},
	}
	rs := newRevisedSolver(p)
	lo, hi := structBounds(p)
	parent, basis, err := rs.solve(context.Background(), lo, hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	if parent.Status != Optimal {
		t.Fatalf("parent %+v", parent)
	}
	// Child: fix x1 = 0.
	chi := append([]float64(nil), hi...)
	chi[1] = 0
	warmSol, _, err := rs.solve(context.Background(), lo, chi, basis)
	if err != nil {
		t.Fatal(err)
	}
	coldSol, _, err := rs.solve(context.Background(), lo, chi, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmSol.Status != Optimal || coldSol.Status != Optimal {
		t.Fatalf("warm %v cold %v", warmSol.Status, coldSol.Status)
	}
	if !almost(warmSol.Obj, coldSol.Obj) {
		t.Fatalf("warm obj %v != cold obj %v", warmSol.Obj, coldSol.Obj)
	}
	if warmSol.Iters > coldSol.Iters {
		t.Errorf("warm start took %d iters, cold %d", warmSol.Iters, coldSol.Iters)
	}
}

// chainLP is a transportation-like chain of n variables: rows
// x_i + x_{i+1} ≥ 2 with costs cycling 1, 2, 3. Its optimum is known
// by construction and it needs about 0.8·n pivots from the slack basis.
func chainLP(n int) *Problem {
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Objective[j] = 1 + float64(j%3)
	}
	for i := 0; i+1 < n; i++ {
		p.Cons = append(p.Cons, Constraint{
			Idx: []int{i, i + 1}, Coef: []float64{1, 1}, Sense: GE, RHS: 2,
		})
	}
	return p
}

// TestRefactorisationPath forces the eta file past refactorEvery to
// cover the periodic refactorisation, on a chain whose optimum is
// known by construction.
func TestRefactorisationPath(t *testing.T) {
	// A 299-row chain needs well over twice refactorEvery pivots, so
	// the eta file is rebuilt several times mid-solve; the optimum is
	// pinned against the dense oracle.
	p := chainLP(300)
	lo, hi := structBounds(p)
	st := newRevisedSolver(p).start(lo, hi, nil)
	got, err := st.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.periodic < 2 {
		t.Fatalf("%d pivots rebuilt the eta file %d times, want several", st.iters, st.periodic)
	}
	want, err := solveDense(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Optimal || want.Status != Optimal {
		t.Fatalf("status got %v want %v", got.Status, want.Status)
	}
	if math.Abs(got.Obj-want.Obj) > 1e-6 {
		t.Fatalf("obj %v, dense oracle %v", got.Obj, want.Obj)
	}
	checkFeasible(t, p, got.X)
}

// TestRefactorCapCountsPivots: the cap counts pivots since the last
// factorisation, not the etas the factorisation itself leaves. On an
// LP of 96 or more rows, a solve from the slack basis and one
// warm-started from its optimal basis (as a branch-and-bound child is)
// each rebuild the eta file at most once per refactorEvery pivots,
// besides the refactorisations a numeric check forces. Counting the
// whole file, the warm solve would rebuild it after every pivot.
func TestRefactorCapCountsPivots(t *testing.T) {
	p := chainLP(400)
	if len(p.Cons) < refactorEvery {
		t.Fatalf("%d rows: the LP must have at least refactorEvery rows", len(p.Cons))
	}
	rs := newRevisedSolver(p)
	lo, hi := structBounds(p)
	cold := rs.start(lo, hi, nil)
	if _, err := cold.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The child fixes every third variable at 0, which moves the
	// optimum far enough for hundreds of pivots.
	child := *p
	child.Upper = make([]float64, p.NumVars)
	for j := range child.Upper {
		child.Upper[j] = math.Inf(1)
		if j%3 == 0 {
			child.Upper[j] = 0
		}
	}
	clo, chi := structBounds(&child)
	warm := rs.start(clo, chi, cold.snapshot())
	if warm.f.base == 0 {
		t.Fatal("the warm start left no factorisation etas")
	}
	got, err := warm.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		st   *rsState
	}{{"cold", cold}, {"warm", warm}} {
		if c.st.iters < 2*refactorEvery {
			t.Fatalf("%s: %d pivots, too few to test the cap", c.name, c.st.iters)
		}
		if allowed := c.st.iters / refactorEvery; c.st.periodic > allowed {
			t.Errorf("%s: %d pivots rebuilt the eta file %d times, at most %d allowed",
				c.name, c.st.iters, c.st.periodic, allowed)
		}
	}
	// The child's optimum from its own slack basis, a different pivot
	// path (the dense oracle is too slow at this size under -race).
	want, err := Solve(&child)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Optimal || want.Status != Optimal || math.Abs(got.Obj-want.Obj) > 1e-6 {
		t.Fatalf("warm child: %v obj %v, cold solve %v obj %v", got.Status, got.Obj, want.Status, want.Obj)
	}
	checkFeasible(t, &child, got.X)
}

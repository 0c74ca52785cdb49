// Bounded-variable sparse revised simplex. The constraint system is
// held once, column-wise, in equality form A·x + I·s = b (one slack per
// row, its bounds encoding the row sense), so finite variable bounds —
// including the 0/1 bounds of the MILP binaries — never become rows.
// The basis inverse is a product-form eta file, periodically
// refactorised; pricing is Devex-weighted Dantzig with incremental
// reduced costs in phase 2 and a Bland fallback once progress stalls.
// Primal feasibility is reached by a composite phase 1 that minimises
// the total bound violation of the basic variables from any starting
// basis, which is what makes warm-starting branch-and-bound children
// from the parent basis cheap: a child differs by one bound, so the
// parent basis is usually a handful of phase-1 pivots from feasible.

package lp

import (
	"context"
	"errors"
	"math"
	"sort"
)

// Tolerances of the revised simplex.
const (
	dualTol   = 1e-9 // reduced-cost optimality threshold
	primalTol = 1e-7 // bound violation considered infeasible
	pivotTol  = 1e-8 // smallest acceptable pivot element
)

// refactorEvery caps the pivots the eta file accumulates after a
// factorisation: beyond this the transformations are rebuilt from the
// basis to flush roundoff and keep FTRAN/BTRAN cheap. The etas the
// factorisation itself leaves (up to one per row) do not count.
const refactorEvery = 96

var errSingularBasis = errors.New("lp: singular basis")

// sparseCols is a column-compressed matrix over the equality form.
type sparseCols struct {
	m   int // rows
	n   int // columns: structural then one slack per row
	ptr []int
	ind []int
	val []float64
}

func (a *sparseCols) col(j int) ([]int, []float64) {
	return a.ind[a.ptr[j]:a.ptr[j+1]], a.val[a.ptr[j]:a.ptr[j+1]]
}

// revisedSolver is the bound-independent half of a problem: matrix,
// costs, right-hand sides and the sense-derived slack bounds. It is
// built once and shared across branch-and-bound nodes, which differ
// only in structural bounds.
type revisedSolver struct {
	a       sparseCols
	b       []float64 // row right-hand sides
	cost    []float64 // per-column phase-2 cost (slacks 0)
	slackLo []float64 // slack bounds per row, from the row sense
	slackHi []float64
	nStruct int
}

func newRevisedSolver(p *Problem) *revisedSolver {
	m := len(p.Cons)
	n := p.NumVars + m
	s := &revisedSolver{
		b:       make([]float64, m),
		cost:    make([]float64, n),
		slackLo: make([]float64, m),
		slackHi: make([]float64, m),
		nStruct: p.NumVars,
	}
	copy(s.cost, p.Objective)
	nnz := m // one identity entry per slack column
	for _, c := range p.Cons {
		nnz += len(c.Idx)
	}
	a := sparseCols{m: m, n: n, ptr: make([]int, n+1), ind: make([]int, nnz), val: make([]float64, nnz)}
	cnt := make([]int, n)
	for _, c := range p.Cons {
		for _, j := range c.Idx {
			cnt[j]++
		}
	}
	for i := 0; i < m; i++ {
		cnt[p.NumVars+i]++
	}
	for j := 0; j < n; j++ {
		a.ptr[j+1] = a.ptr[j] + cnt[j]
	}
	next := append([]int(nil), a.ptr[:n]...)
	for i, c := range p.Cons {
		for k, j := range c.Idx {
			a.ind[next[j]] = i
			a.val[next[j]] = c.Coef[k]
			next[j]++
		}
	}
	for i := 0; i < m; i++ {
		j := p.NumVars + i
		a.ind[next[j]] = i
		a.val[next[j]] = 1
		next[j]++
	}
	s.a = a
	for i, c := range p.Cons {
		s.b[i] = c.RHS
		switch c.Sense {
		case LE: // a·x ≤ b ⇔ a·x + s = b, s ≥ 0
			s.slackLo[i], s.slackHi[i] = 0, math.Inf(1)
		case GE: // a·x ≥ b ⇔ a·x + s = b, s ≤ 0
			s.slackLo[i], s.slackHi[i] = math.Inf(-1), 0
		default: // EQ: slack fixed at 0
			s.slackLo[i], s.slackHi[i] = 0, 0
		}
	}
	return s
}

// basisState captures a simplex basis (and the bound each nonbasic
// variable rests on) for warm starts between related solves.
type basisState struct {
	basis   []int
	atUpper []bool
}

// rsState is the mutable state of one solve.
type rsState struct {
	s        *revisedSolver
	lo, hi   []float64 // per-column working bounds
	x        []float64 // current value per column
	basis    []int     // basis position -> column
	pos      []int     // column -> basis position, -1 if nonbasic
	atUpper  []bool    // nonbasic columns: resting on upper bound
	f        *etaFile
	w        []float64 // scratch: FTRANed entering column
	y        []float64 // scratch: BTRAN pricing vector
	rho      []float64 // scratch: BTRANed pivot-row unit vector
	rhs      []float64 // scratch: RHS accumulation in computeX
	dj       []float64 // phase-2 reduced costs, maintained incrementally
	wref     []float64 // Devex reference weights
	iters    int
	periodic int  // refactorisations the refactorEvery cap triggered
	bland    bool // anti-cycling mode: smallest-index pivoting
	fresh    bool // eta file was just (re)factorised; gates numeric retries
}

// solve optimises min cost·x over A·x + s = b with the given structural
// bounds (length NumVars). A non-nil warm basis from a related solve is
// used as the starting point when it is still structurally valid. The
// returned basisState re-warm-starts subsequent solves; it is nil when
// the solve did not reach a conclusive basis (cancellation or numeric
// failure).
func (s *revisedSolver) solve(ctx context.Context, lo, hi []float64, warm *basisState) (*Solution, *basisState, error) {
	st := s.start(lo, hi, warm)
	sol, err := st.run(ctx)
	if err != nil {
		return sol, nil, err
	}
	return sol, st.snapshot(), nil
}

// start builds the working state of one solve on the warm basis, or on
// the all-slack basis when warm is nil or unusable, with the basic
// values computed.
func (s *revisedSolver) start(lo, hi []float64, warm *basisState) *rsState {
	m, n := s.a.m, s.a.n
	st := &rsState{
		s:       s,
		lo:      make([]float64, n),
		hi:      make([]float64, n),
		x:       make([]float64, n),
		basis:   make([]int, m),
		pos:     make([]int, n),
		atUpper: make([]bool, n),
		f:       newEtaFile(m),
		w:       make([]float64, m),
		y:       make([]float64, m),
		rho:     make([]float64, m),
		rhs:     make([]float64, m),
		dj:      make([]float64, n),
		wref:    make([]float64, n),
	}
	copy(st.lo, lo)
	copy(st.hi, hi)
	copy(st.lo[s.nStruct:], s.slackLo)
	copy(st.hi[s.nStruct:], s.slackHi)
	for j := range st.wref {
		st.wref[j] = 1
	}
	if !st.warmStart(warm) {
		st.coldStart()
	}
	st.computeX()
	return st
}

// warmStart installs a basis from a previous related solve; it reports
// false (leaving the state for coldStart) if the basis is malformed or
// numerically singular.
func (st *rsState) warmStart(warm *basisState) bool {
	s := st.s
	if warm == nil || len(warm.basis) != s.a.m || len(warm.atUpper) != s.a.n {
		return false
	}
	for j := range st.pos {
		st.pos[j] = -1
	}
	for i, j := range warm.basis {
		if j < 0 || j >= s.a.n || st.pos[j] >= 0 {
			return false
		}
		st.basis[i] = j
		st.pos[j] = i
	}
	copy(st.atUpper, warm.atUpper)
	return st.factorize() == nil
}

// coldStart installs the all-slack basis (B = I).
func (st *rsState) coldStart() {
	s := st.s
	for j := range st.pos {
		st.pos[j] = -1
	}
	for j := range st.atUpper {
		st.atUpper[j] = false
	}
	for i := 0; i < s.a.m; i++ {
		st.basis[i] = s.nStruct + i
		st.pos[s.nStruct+i] = i
	}
	st.f.reset()
	st.fresh = true
}

func (st *rsState) snapshot() *basisState {
	return &basisState{
		basis:   append([]int(nil), st.basis...),
		atUpper: append([]bool(nil), st.atUpper...),
	}
}

// factorize rebuilds the eta file from the basis by product-form
// Gauss-Jordan elimination: columns are processed sparsest-first, each
// pivoting on the largest remaining unassigned position (partial
// pivoting), which also reassigns basis positions.
func (st *rsState) factorize() error {
	s := st.s
	m := s.a.m
	st.f.reset()
	st.fresh = true
	if m == 0 {
		return nil
	}
	cols := append([]int(nil), st.basis...)
	sort.Slice(cols, func(a, b int) bool {
		na := s.a.ptr[cols[a]+1] - s.a.ptr[cols[a]]
		nb := s.a.ptr[cols[b]+1] - s.a.ptr[cols[b]]
		if na != nb {
			return na < nb
		}
		return cols[a] < cols[b]
	})
	used := make([]bool, m)
	newBasis := make([]int, m)
	w := make([]float64, m)
	for _, cj := range cols {
		for i := range w {
			w[i] = 0
		}
		ind, val := s.a.col(cj)
		for k, i := range ind {
			w[i] += val[k]
		}
		st.f.ftran(w)
		r, best := -1, 0.0
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			if a := math.Abs(w[i]); a > best {
				best, r = a, i
			}
		}
		if r < 0 || best < pivotTol {
			return errSingularBasis
		}
		// A slack column the earlier etas left as its unit vector needs
		// no eta of its own.
		if !unitSpike(r, w) {
			st.f.push(r, w)
		}
		used[r] = true
		newBasis[r] = cj
	}
	st.f.base = len(st.f.etas)
	copy(st.basis, newBasis)
	for j := range st.pos {
		st.pos[j] = -1
	}
	for i, j := range st.basis {
		st.pos[j] = i
	}
	return nil
}

// computeX sets every nonbasic variable onto its resting bound and
// solves B·x_B = b − N·x_N for the basic values.
func (st *rsState) computeX() {
	s := st.s
	for j := 0; j < s.a.n; j++ {
		if st.pos[j] >= 0 {
			continue
		}
		lo, hi := st.lo[j], st.hi[j]
		v := 0.0
		switch {
		case st.atUpper[j] && !math.IsInf(hi, 1):
			v = hi
		case !math.IsInf(lo, -1):
			v = lo
			st.atUpper[j] = false
		case !math.IsInf(hi, 1):
			v = hi
			st.atUpper[j] = true
		}
		st.x[j] = v
	}
	copy(st.rhs, s.b)
	for j := 0; j < s.a.n; j++ {
		if st.pos[j] >= 0 || st.x[j] == 0 {
			continue
		}
		ind, val := s.a.col(j)
		for k, i := range ind {
			st.rhs[i] -= val[k] * st.x[j]
		}
	}
	st.f.ftran(st.rhs)
	for i, j := range st.basis {
		st.x[j] = st.rhs[i]
	}
}

func (st *rsState) refactor() error {
	if err := st.factorize(); err != nil {
		return err
	}
	st.computeX()
	return nil
}

// fixed reports whether a column's bounds pin it (EQ slacks, or
// binaries fixed by branching); fixed columns never price.
func (st *rsState) fixed(j int) bool { return st.hi[j]-st.lo[j] <= 1e-12 }

// infeasibility is the total bound violation of the basic variables:
// the composite phase-1 objective.
func (st *rsState) infeasibility() float64 {
	var f float64
	for _, j := range st.basis {
		if v := st.lo[j] - st.x[j]; v > 0 {
			f += v
		}
		if v := st.x[j] - st.hi[j]; v > 0 {
			f += v
		}
	}
	return f
}

// priceP1 prices for phase 1: the cost of each basic variable is ±1 by
// which bound it violates, nonbasic costs are 0, so a nonbasic column
// improves iff its reduced cost −y·A_j points into feasibility.
// Returns the entering column and its direction of change (+1 from
// lower, −1 from upper), or q = −1 at a phase-1 optimum.
func (st *rsState) priceP1() (q, dir int) {
	s := st.s
	for i, j := range st.basis {
		switch {
		case st.x[j] < st.lo[j]-primalTol:
			st.y[i] = -1
		case st.x[j] > st.hi[j]+primalTol:
			st.y[i] = 1
		default:
			st.y[i] = 0
		}
	}
	st.f.btran(st.y)
	q, dir = -1, 0
	best := 0.0
	for j := 0; j < s.a.n; j++ {
		if st.pos[j] >= 0 || st.fixed(j) {
			continue
		}
		ind, val := s.a.col(j)
		var d float64
		for k, i := range ind {
			d -= val[k] * st.y[i]
		}
		var dj int
		switch {
		case !st.atUpper[j] && d < -dualTol:
			dj = 1
		case st.atUpper[j] && d > dualTol:
			dj = -1
		default:
			continue
		}
		if st.bland {
			return j, dj
		}
		if sc := d * d / st.wref[j]; sc > best {
			best, q, dir = sc, j, dj
		}
	}
	return q, dir
}

// priceP2 picks the phase-2 entering column by Devex-weighted reduced
// cost, or smallest eligible index in Bland mode.
func (st *rsState) priceP2() (q, dir int) {
	q, dir = -1, 0
	best := 0.0
	for j := 0; j < st.s.a.n; j++ {
		if st.pos[j] >= 0 || st.fixed(j) {
			continue
		}
		d := st.dj[j]
		var dj int
		switch {
		case !st.atUpper[j] && d < -dualTol:
			dj = 1
		case st.atUpper[j] && d > dualTol:
			dj = -1
		default:
			continue
		}
		if st.bland {
			return j, dj
		}
		if sc := d * d / st.wref[j]; sc > best {
			best, q, dir = sc, j, dj
		}
	}
	return q, dir
}

// resetDJ recomputes the phase-2 reduced costs from scratch:
// d = c − Aᵀ·B⁻ᵀ·c_B.
func (st *rsState) resetDJ() {
	s := st.s
	for i, j := range st.basis {
		st.y[i] = s.cost[j]
	}
	st.f.btran(st.y)
	for j := 0; j < s.a.n; j++ {
		if st.pos[j] >= 0 {
			st.dj[j] = 0
			continue
		}
		ind, val := s.a.col(j)
		d := s.cost[j]
		for k, i := range ind {
			d -= val[k] * st.y[i]
		}
		st.dj[j] = d
	}
}

// ftranCol loads column j into st.w and applies B⁻¹.
func (st *rsState) ftranCol(j int) {
	for i := range st.w {
		st.w[i] = 0
	}
	ind, val := st.s.a.col(j)
	for k, i := range ind {
		st.w[i] += val[k]
	}
	st.f.ftran(st.w)
}

// ratioTest finds the largest step t for entering column q moving in
// direction dir given w = B⁻¹A_q. It returns the blocking basis
// position r (−1 when the entering variable's own opposite bound blocks
// first — flip — or nothing blocks at all: t is then infinite, meaning
// unbounded in phase 2). In phase 1, basic variables outside their
// bounds block only at the bound they are approaching, which is exactly
// what drives the infeasibility to zero. Ties prefer the largest pivot
// element for stability, or the smallest variable index in Bland mode.
func (st *rsState) ratioTest(q, dir int, phase1 bool) (r int, t float64, flip bool) {
	d := float64(dir)
	t = math.Inf(1)
	r = -1
	bestAbs := 0.0
	for i := 0; i < st.s.a.m; i++ {
		wi := st.w[i]
		if wi < pivotTol && wi > -pivotTol {
			continue
		}
		delta := -d * wi // change of basic i per unit step
		j := st.basis[i]
		xj := st.x[j]
		var ti float64
		switch {
		case phase1 && xj < st.lo[j]-primalTol:
			if delta < pivotTol {
				continue // moving deeper below: priced into the objective, no block
			}
			ti = (st.lo[j] - xj) / delta
		case phase1 && xj > st.hi[j]+primalTol:
			if delta > -pivotTol {
				continue
			}
			ti = (st.hi[j] - xj) / delta
		case delta > 0:
			if math.IsInf(st.hi[j], 1) {
				continue
			}
			ti = (st.hi[j] - xj) / delta
		default:
			if math.IsInf(st.lo[j], -1) {
				continue
			}
			ti = (st.lo[j] - xj) / delta
		}
		if ti < 0 {
			ti = 0 // tolerance overshoot: degenerate step
		}
		switch {
		case r < 0 || ti < t-1e-10:
			r, t, bestAbs = i, ti, math.Abs(wi)
		case ti <= t+1e-10:
			if st.bland {
				if j < st.basis[r] {
					r, bestAbs = i, math.Abs(wi)
					if ti < t {
						t = ti
					}
				}
			} else if a := math.Abs(wi); a > bestAbs {
				r, bestAbs = i, a
				if ti < t {
					t = ti
				}
			}
		}
	}
	if span := st.hi[q] - st.lo[q]; !math.IsInf(span, 1) && span <= t+1e-10 {
		return -1, span, true
	}
	return r, t, false
}

// applyFlip moves the entering variable across to its opposite bound
// without a basis change.
func (st *rsState) applyFlip(q, dir int, t float64) {
	d := float64(dir)
	for i, wi := range st.w {
		if wi != 0 {
			st.x[st.basis[i]] -= d * t * wi
		}
	}
	st.atUpper[q] = dir > 0
	if st.atUpper[q] {
		st.x[q] = st.hi[q]
	} else {
		st.x[q] = st.lo[q]
	}
	st.iters++
}

// applyPivot performs the basis change: entering q replaces the
// variable at position r, which leaves onto the bound it reached.
func (st *rsState) applyPivot(q, dir, r int, t float64) {
	d := float64(dir)
	for i, wi := range st.w {
		if wi != 0 {
			st.x[st.basis[i]] -= d * t * wi
		}
	}
	st.x[q] += d * t
	jOut := st.basis[r]
	lo, hi := st.lo[jOut], st.hi[jOut]
	switch {
	case math.IsInf(hi, 1):
		st.x[jOut], st.atUpper[jOut] = lo, false
	case math.IsInf(lo, -1):
		st.x[jOut], st.atUpper[jOut] = hi, true
	case math.Abs(st.x[jOut]-lo) <= math.Abs(st.x[jOut]-hi):
		st.x[jOut], st.atUpper[jOut] = lo, false
	default:
		st.x[jOut], st.atUpper[jOut] = hi, true
	}
	st.pos[jOut] = -1
	st.basis[r] = q
	st.pos[q] = r
	st.f.push(r, st.w)
	st.fresh = false
	st.iters++
}

// updateDualsDevex maintains the phase-2 reduced costs and Devex
// reference weights across the pivot (q entering at position r). Must
// run before applyPivot, while pos still describes the old basis. The
// pivot row α_r = e_rᵀB⁻¹A is obtained by one BTRAN of e_r; it both
// updates d (d_j ← d_j − θ_d·α_rj) and refreshes the weights.
func (st *rsState) updateDualsDevex(q, r int) {
	s := st.s
	alphaQ := st.w[r]
	thetaD := st.dj[q] / alphaQ
	for i := range st.rho {
		st.rho[i] = 0
	}
	st.rho[r] = 1
	st.f.btran(st.rho)
	wq := st.wref[q]
	jOut := st.basis[r]
	for j := 0; j < s.a.n; j++ {
		if st.pos[j] >= 0 || j == q || st.fixed(j) {
			continue
		}
		ind, val := s.a.col(j)
		var alpha float64
		for k, i := range ind {
			alpha += val[k] * st.rho[i]
		}
		if alpha == 0 {
			continue
		}
		st.dj[j] -= thetaD * alpha
		ratio := alpha / alphaQ
		if nw := ratio * ratio * wq; nw > st.wref[j] {
			st.wref[j] = nw
		}
	}
	st.dj[jOut] = -thetaD
	st.dj[q] = 0
	if nw := wq / (alphaQ * alphaQ); nw > 1 {
		st.wref[jOut] = nw
	} else {
		st.wref[jOut] = 1
	}
}

// objective is cᵀx over the structural variables.
func (st *rsState) objective() float64 {
	var v float64
	for j := 0; j < st.s.nStruct; j++ {
		v += st.s.cost[j] * st.x[j]
	}
	return v
}

// solution extracts the structural optimum.
func (st *rsState) solution() *Solution {
	s := st.s
	x := make([]float64, s.nStruct)
	for j := range x {
		v := st.x[j]
		if v < st.lo[j] {
			v = st.lo[j]
		} else if v > st.hi[j] {
			v = st.hi[j]
		}
		if v < 1e-11 && v > -1e-11 {
			v = 0
		}
		x[j] = v
	}
	var obj float64
	for j, c := range s.cost[:s.nStruct] {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Iters: st.iters}
}

// run drives the two phases to a verdict. Phase 2 preserves primal
// feasibility mathematically, but roundoff between refactorisations can
// erode it; the outer loop sends such a basis back through phase 1.
func (st *rsState) run(ctx context.Context) (*Solution, error) {
	m, n := st.s.a.m, st.s.a.n
	limit := 400*(m+n) + 1000
	stallLimit := 4*(m+n) + 100
	poll := 0
	// The periodic in-loop polls only fire every few pivots; small
	// problems can finish inside that window, so an already-done context
	// must be caught up front.
	if ctx.Err() != nil {
		return canceledResult(ctx, 0)
	}
	for {
		if sol, err := st.phase1(ctx, limit, stallLimit, &poll); sol != nil || err != nil {
			return sol, err
		}
		sol, again, err := st.phase2(ctx, limit, stallLimit, &poll)
		if !again {
			return sol, err
		}
	}
}

// phase1 pivots until the basics are within bounds. A (nil, nil) return
// means primal feasible: proceed to phase 2.
func (st *rsState) phase1(ctx context.Context, limit, stallLimit int, poll *int) (*Solution, error) {
	bestInf := math.Inf(1)
	stall := 0
	for {
		*poll++
		if *poll&7 == 0 && ctx.Err() != nil {
			return canceledResult(ctx, st.iters)
		}
		if st.iters > limit {
			return nil, ErrNumeric
		}
		inf := st.infeasibility()
		if inf <= feasEps {
			break
		}
		if inf < bestInf-1e-10 {
			bestInf, stall = inf, 0
		} else if stall++; stall > stallLimit {
			st.bland = true
		}
		q, dir := st.priceP1()
		if q < 0 {
			// Phase-1 optimum with residual infeasibility: the problem
			// is infeasible — but re-verify on a fresh factorisation so
			// drift cannot produce a false verdict.
			if !st.fresh {
				if err := st.refactor(); err != nil {
					return nil, ErrNumeric
				}
				continue
			}
			return &Solution{Status: Infeasible, Iters: st.iters}, nil
		}
		st.ftranCol(q)
		r, t, flip := st.ratioTest(q, dir, true)
		if flip {
			st.applyFlip(q, dir, t)
			continue
		}
		if r < 0 {
			// The infeasibility measure cannot be unbounded below, so a
			// blockless improving direction is numerical noise.
			if !st.fresh {
				if err := st.refactor(); err != nil {
					return nil, ErrNumeric
				}
				continue
			}
			return nil, ErrNumeric
		}
		st.applyPivot(q, dir, r, t)
		if st.f.pivots() >= refactorEvery {
			st.periodic++
			if err := st.refactor(); err != nil {
				return nil, ErrNumeric
			}
		}
	}
	return nil, nil
}

// phase2 optimises the true objective from a primal-feasible basis.
// again=true asks run to re-enter phase 1: roundoff pushed a basic
// variable out of bounds.
func (st *rsState) phase2(ctx context.Context, limit, stallLimit int, poll *int) (sol *Solution, again bool, err error) {
	st.bland = false
	st.resetDJ()
	bestObj := math.Inf(1)
	stall := 0
	recheck := 0
	for {
		*poll++
		if *poll&7 == 0 && ctx.Err() != nil {
			sol, err = canceledResult(ctx, st.iters)
			return sol, false, err
		}
		if st.iters > limit {
			return nil, false, ErrNumeric
		}
		q, dir := st.priceP2()
		if q < 0 {
			// Optimal — but confirm once on exact reduced costs from a
			// fresh factorisation before declaring, since dj is
			// maintained incrementally.
			if recheck < 1 {
				recheck++
				if err := st.refactor(); err != nil {
					return nil, false, ErrNumeric
				}
				st.resetDJ()
				if st.infeasibility() > feasEps {
					return nil, true, nil
				}
				continue
			}
			return st.solution(), false, nil
		}
		st.ftranCol(q)
		r, t, flip := st.ratioTest(q, dir, false)
		if flip {
			st.applyFlip(q, dir, t) // dj and the basis are unchanged
			continue
		}
		if r < 0 {
			if !st.fresh {
				if err := st.refactor(); err != nil {
					return nil, false, ErrNumeric
				}
				st.resetDJ()
				continue
			}
			return &Solution{Status: Unbounded, Iters: st.iters}, false, nil
		}
		st.updateDualsDevex(q, r)
		st.applyPivot(q, dir, r, t)
		recheck = 0
		if st.f.pivots() >= refactorEvery {
			st.periodic++
			if err := st.refactor(); err != nil {
				return nil, false, ErrNumeric
			}
			st.resetDJ()
		}
		if obj := st.objective(); obj < bestObj-1e-10 {
			bestObj, stall = obj, 0
		} else if stall++; stall > stallLimit {
			st.bland = true
		}
	}
}

// Package sched implements the paper's §2.2: resource-constrained list
// scheduling of a sequencing graph using incomplete wordlength
// information. Operations are scheduled with their latency *upper bounds*
// L_o (so any later binding can never violate the schedule), and the
// resource constraint is the reconstruction of the paper's Eqn. 3: with S
// a minimum-cardinality scheduling set of resource kinds covering every
// operation, and S(o) the members of S compatible with operation o,
//
//	∀y ∈ Y :  Σ_{s∈S_y}  max_{t∈T}  Σ_{o∈O(s)} e_{o,t} / |S(o)|  ≤  N_y
//
// Usage of an operation compatible with several scheduling-set members is
// shared equally between them (the 1/|S(o)| division), the max over
// control steps counts the peak per-kind demand, and the outer sum over
// the scheduling set accounts for cross-step kind conflicts that the
// classical constraint (Eqn. 2, per-step counting) misses. Shares are
// kept in exact integer arithmetic scaled by the lcm of the |S(o)|.
//
// A schedule that Eqn. 3 rejects sends Algorithm DPAlloc to refine and
// reschedule, and on large graphs most rounds are such deadlocks.
// Scratch.Try answers them early. Operations with the same S(o) form a
// signature with one share w, class y and limit N_y. Placing one adds at
// least max(0, w − peak_s) to each peak of S(o), and peaks never fall. So
// once
//
//	Σ_{s∈S_y} peak_s  +  Σ_{s∈S(o)} max(0, w − peak_s)  >  N_y
//
// (in scaled units) holds for a signature with an unplaced member, that
// member fits at no step and the schedule is bound to fail. Try checks
// the certificate after every placement that raised a class's sum, on
// that class's signatures, and fails there. Schedules that succeed are
// identical to List's. Without signatures (|S| > 64) Try is List.
package sched

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/wcg"
)

// Limits is the per-hardware-class resource constraint N_y. A class
// absent from the map is unconstrained. A nil Limits means fully
// unconstrained scheduling (which reduces to ASAP).
type Limits map[model.OpType]int

// Result is a schedule of the sequencing graph.
type Result struct {
	Start    []int // start control step per operation
	Makespan int   // completion step of the last operation under the scheduling latencies
	SchedSet []int // kind indices of the scheduling set used for Eqn. 3
}

// ErrResourceInfeasible is returned when some ready operation cannot be
// scheduled at any control step under Eqn. 3 — the signal for Algorithm
// DPAlloc to refine wordlength information.
var ErrResourceInfeasible = errors.New("sched: resource constraint unsatisfiable under Eqn. 3")

// InfeasibleError reports the operation that could not be placed under
// the resource constraint. It matches ErrResourceInfeasible via
// errors.Is.
type InfeasibleError struct {
	Op dfg.OpID
	// Need is how many additional resources of the operation's hardware
	// class Eqn. 3 was short at the deadlock (≥ 1): the class overload
	// divided by the accounting scale, rounded up. Callers searching
	// over resource bounds can jump by Need instead of probing one unit
	// at a time.
	Need int
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("sched: operation %d cannot be placed under Eqn. 3", e.Op)
}

// Is reports whether target is ErrResourceInfeasible.
func (e *InfeasibleError) Is(target error) bool { return target == ErrResourceInfeasible }

// SchedulingSet computes a small subset S ⊆ R such that every operation
// has an H edge to some member, preferring large cover then small area
// (greedy set cover; minimum-cardinality covering is NP-hard, and the
// greedy bound is the standard choice). Cover counts are popcounts of
// kind-adjacency bit sets against the uncovered set, so each round is
// O(|R| · n/64) rather than a per-kind operation-list scan.
func SchedulingSet(g *wcg.Graph) []int {
	return new(Scratch).schedulingSet(g)
}

// setCand is a lazily maintained candidate of the scheduling-set cover:
// the last known number of uncovered operations a kind covers.
type setCand struct {
	ki    int
	cover int
	area  int64
}

// schedulingSet is SchedulingSet with its uncovered set and candidate
// heap kept in s. The returned set is freshly allocated.
func (s *Scratch) schedulingSet(g *wcg.Graph) []int {
	n := g.D.N()
	s.uncovered = append(s.uncovered[:0], make([]uint64, (n+63)/64)...) // the words of bitset.New(n)
	uncovered := s.uncovered
	for i := 0; i < n; i++ {
		uncovered.Add(i)
	}
	remaining := n
	var set []int
	// Lazy greedy: cover counts only shrink as operations get covered,
	// so a cached count is an upper bound and the popped top, once its
	// count validates, beats every other kind — the selection sequence
	// is identical to rescanning all kinds each round. The comparator
	// (cover desc, area asc, index asc) reproduces the scan's winner.
	type cand = setCand
	better := func(a, b cand) bool {
		if a.cover != b.cover {
			return a.cover > b.cover
		}
		if a.area != b.area {
			return a.area < b.area
		}
		return a.ki < b.ki
	}
	h := s.setHeap[:0]
	push := func(v cand) {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if better(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() cand {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && better(h[l], h[m]) {
				m = l
			}
			if r < len(h) && better(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for ki := range g.Kinds {
		if c := g.CompatOpCount(ki); c > 0 {
			push(cand{ki: ki, cover: c, area: g.Lib.Area(g.Kinds[ki])})
		}
	}
	for remaining > 0 {
		if len(h) == 0 {
			// Build guarantees every op has an edge, so this cannot
			// happen for a consistent graph.
			panic("sched: operation with no compatible kind")
		}
		e := pop()
		c := g.CompatOpBits(e.ki).IntersectCount(uncovered)
		if c == 0 {
			continue
		}
		if c < e.cover {
			e.cover = c
			push(e)
			continue
		}
		set = append(set, e.ki)
		remaining -= c
		uncovered.Difference(g.CompatOpBits(e.ki))
		// A selected kind's future cover is zero; it never re-enters.
	}
	s.setHeap = h
	sort.Ints(set)
	return set
}

// constraintMode selects the resource-accounting rule.
type constraintMode int

const (
	modeEqn3 constraintMode = iota // paper's constraint (default)
	modeEqn2                       // classical per-step counting (ablation)
)

// List schedules the graph with latency upper bounds from the
// compatibility graph under Eqn. 3. With nil or empty limits it reduces
// to ASAP scheduling.
func List(g *wcg.Graph, limits Limits) (Result, error) {
	return new(Scratch).List(g, limits)
}

// Scratch is the list scheduler's working memory: the Eqn. 3
// accountant's per-operation arrays and per-slot load rows, the
// scheduling-set heap, and the ready/pending bookkeeping. A caller
// scheduling once per schedule/bind/refine round keeps one Scratch for
// the whole ladder so those buffers are allocated once rather than every
// round. The zero value is ready to use; a Scratch must not be used by
// two goroutines at once.
//
// Each buffer is reset with append(buf[:0], make([]T, n)...), which the
// compiler turns into zeroing the reused capacity when it suffices.
type Scratch struct {
	acct      eqn3Acct
	uncovered bitset.Set
	setHeap   []setCand
	sigOf     map[uint64]int
	sizes     []int
	slotLimit []int64
	prio      []int
	predLeft  []int
	finish    []int
	ready     []dfg.OpID
	incoming  []dfg.OpID
	merged    []dfg.OpID
	pending   pendHeap
	running   intHeap
}

// List is the package-level List running in s. The Result does not
// alias s.
func (s *Scratch) List(g *wcg.Graph, limits Limits) (Result, error) {
	return list(g, limits, modeEqn3, s, false)
}

// Try is List that gives up as soon as Eqn. 3 proves some unplaced
// operation can never be placed (see doomed), returning a plain
// ErrResourceInfeasible with no InfeasibleError detail. When List
// succeeds Try returns the identical Result; when List fails so does
// Try, usually after a short prefix of the placements. A caller that
// needs the deadlocked operation and its deficit re-runs List.
func (s *Scratch) Try(g *wcg.Graph, limits Limits) (Result, error) {
	return list(g, limits, modeEqn3, s, true)
}

// ListEqn2 schedules with the classical Eqn. 2 constraint (resource usage
// counted per step per class, ignoring wordlength information). Exposed
// for the ablation benches; the paper shows this constraint is too weak
// to guarantee bindability.
func ListEqn2(g *wcg.Graph, limits Limits) (Result, error) {
	return list(g, limits, modeEqn2, new(Scratch), false)
}

// list is the list scheduler; failFast selects Try's early exit.
func list(g *wcg.Graph, limits Limits, mode constraintMode, s *Scratch, failFast bool) (Result, error) {
	d := g.D
	n := d.N()
	lat := g.UpperLatSlice()
	res := Result{Start: make([]int, n)}
	if n == 0 {
		return res, nil
	}

	order, err := g.TopoOrder()
	if err != nil {
		return Result{}, err
	}
	s.prio = append(s.prio[:0], make([]int, n)...)
	prio := s.prio
	priorities(d, order, lat, prio)

	// The accountant is devirtualized for the common Eqn. 3 case: the
	// deferral-retry loop below queries feasibility roughly (ready ×
	// steps) times, and an interface call per query costs more than the
	// cached answer it usually returns.
	var acct accountant
	var a3 *eqn3Acct
	var sig, sigEpoch, sigOkL, sigBadL []int
	if len(limits) > 0 {
		switch mode {
		case modeEqn3:
			res.SchedSet = s.schedulingSet(g)
			a3 = s.eqn3Accountant(g, res.SchedSet, limits, failFast)
			acct = a3
			sig, sigEpoch, sigOkL, sigBadL = a3.sig, a3.sigEpoch, a3.sigOkL, a3.sigBadL
		case modeEqn2:
			acct = newEqn2Accountant(g, limits)
		}
	}

	// Readiness is tracked by events instead of per-step rescans: an
	// operation enters the pending heap (keyed by the max finish of its
	// predecessors) the moment its last predecessor is placed, and moves
	// to the ready list once t reaches that key. Deferred operations —
	// ready but rejected by the accountant — simply stay on the ready
	// list for the next step, which is exactly the retry behavior of the
	// original full rescan.
	s.predLeft = append(s.predLeft[:0], make([]int, n)...)
	predLeft := s.predLeft
	for i := 0; i < n; i++ {
		predLeft[i] = len(d.Pred(dfg.OpID(i)))
	}
	s.finish = append(s.finish[:0], make([]int, n)...)
	finish := s.finish       // valid once scheduled
	pending := s.pending[:0] // ops whose preds are placed but still running
	running := s.running[:0] // finish times of placed operations
	ready := s.ready[:0]
	incoming, merged := s.incoming[:0], s.merged[:0]
	defer func() {
		s.pending, s.running = pending, running
		s.ready, s.incoming, s.merged = ready, incoming, merged
	}()
	for i := 0; i < n; i++ {
		if predLeft[i] == 0 {
			ready = append(ready, dfg.OpID(i))
		}
	}
	// Placement order is (priority desc, ID asc) — a strict total order
	// since IDs are distinct. The ready list is kept sorted: deferrals
	// preserve order, and each step's arrivals are sorted alone and
	// merged in, instead of re-sorting the whole list every step.
	cmpOp := func(a, b dfg.OpID) int {
		if prio[a] != prio[b] {
			return prio[b] - prio[a]
		}
		return int(a) - int(b)
	}
	slices.SortFunc(ready, cmpOp)
	nDone := 0
	t := 0
	horizonGuard := 0
	maxGuard := 4 * (n + 2) * (maxLat(g) + 1)
	for nDone < n {
		incoming = incoming[:0]
		for len(pending) > 0 && pending[0].at <= t {
			incoming = append(incoming, pending.pop().op)
		}
		if len(incoming) > 0 {
			slices.SortFunc(incoming, cmpOp)
			merged = merged[:0]
			i, j := 0, 0
			for i < len(ready) && j < len(incoming) {
				if cmpOp(ready[i], incoming[j]) < 0 {
					merged = append(merged, ready[i])
					i++
				} else {
					merged = append(merged, incoming[j])
					j++
				}
			}
			merged = append(merged, ready[i:]...)
			merged = append(merged, incoming[j:]...)
			ready, merged = merged, ready
		}
		progress := false
		kept := ready[:0]
		for _, o := range ready {
			l := lat[o]
			if a3 != nil {
				// Manually inlined probe of the accountant's monotone
				// signature cache; only misses pay the call into fits.
				ok, hit := false, false
				if sig != nil && t == a3.lastT {
					if s := sig[o]; sigEpoch[s] == a3.epoch {
						if l <= sigOkL[s] {
							ok, hit = true, true
						} else if l >= sigBadL[s] {
							hit = true
						}
					}
				}
				if !hit {
					ok = a3.fits(o, t, l)
				}
				if !ok {
					kept = append(kept, o)
					continue
				}
			} else if acct != nil && !acct.fits(o, t, l) {
				kept = append(kept, o)
				continue
			}
			if a3 != nil {
				y := a3.classOf[o]
				before := a3.classSum[y]
				a3.commit(o, t, l)
				if a3.sigLeft != nil {
					a3.sigLeft[sig[o]]--
					if a3.classSum[y] > before && a3.doomed(y) {
						return Result{}, ErrResourceInfeasible
					}
				}
			} else if acct != nil {
				acct.commit(o, t, l)
			}
			res.Start[o] = t
			f := t + l
			finish[o] = f
			if f > res.Makespan {
				res.Makespan = f
			}
			running.push(f)
			nDone++
			progress = true
			for _, s := range d.Succ(o) {
				predLeft[s]--
				if predLeft[s] == 0 {
					at := 0
					for _, p := range d.Pred(s) {
						if finish[p] > at {
							at = finish[p]
						}
					}
					// Successors finish after t, so at > t always:
					// they become ready at a strictly later step.
					pending.push(pendItem{at: at, op: s})
				}
			}
		}
		ready = kept
		if nDone == n {
			break
		}
		// Advance to the next interesting step: the earliest finish time
		// of a running operation, or t+1 if deferral was purely due to
		// resource accounting.
		for len(running) > 0 && running[0] <= t {
			running.pop()
		}
		next := -1
		if len(running) > 0 {
			next = running[0]
		}
		if next < 0 {
			if !progress && len(ready) > 0 {
				// Idle machine, ready work, nothing fits: under peak
				// accounting this cannot improve at a later step.
				need := 1
				if a3 != nil {
					if d := a3.deficit(ready[0], t, lat[ready[0]]); d > need {
						need = d
					}
				}
				return Result{}, &InfeasibleError{Op: ready[0], Need: need}
			}
			next = t + 1
		}
		t = next
		horizonGuard++
		if horizonGuard > maxGuard {
			return Result{}, fmt.Errorf("%w: no progress within horizon", ErrResourceInfeasible)
		}
	}
	return res, nil
}

// pendItem is an operation waiting for its predecessors to finish.
type pendItem struct {
	at int // step at which the op becomes ready (max pred finish)
	op dfg.OpID
}

// pendHeap is a min-heap of pendItems by readiness step. Order among
// equal steps is irrelevant: the ready list is sorted by priority before
// placement.
type pendHeap []pendItem

func (h *pendHeap) push(v pendItem) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].at <= a[i].at {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *pendHeap) pop() pendItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l].at < a[m].at {
			m = l
		}
		if r < len(a) && a[r].at < a[m].at {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// intHeap is a min-heap of ints (finish times of running operations).
type intHeap []int

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l] < a[m] {
			m = l
		}
		if r < len(a) && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

func maxLat(g *wcg.Graph) int {
	m := 1
	for o := 0; o < g.D.N(); o++ {
		if l := g.UpperLatency(dfg.OpID(o)); l > m {
			m = l
		}
	}
	return m
}

// priorities returns the standard list-scheduling priority: the longest
// path (in cycles, inclusive of own latency) from each operation to any
// sink. Most critical first.
func priorities(d *dfg.Graph, order []dfg.OpID, lat []int, prio []int) {
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0
		for _, s := range d.Succ(id) {
			if prio[s] > best {
				best = prio[s]
			}
		}
		prio[id] = best + lat[id]
	}
}

// accountant tracks resource usage and answers feasibility queries for
// placing an operation over [t, t+l).
type accountant interface {
	fits(o dfg.OpID, t, l int) bool
	commit(o dfg.OpID, t, l int)
}

// ---- Eqn. 3 accounting ----

type eqn3Acct struct {
	scale int64   // lcm of |S(o)| over all operations
	share []int64 // scale / |S(o)| per op
	// limitScaled[o] is the op's class limit times scale, or -1 when the
	// class is unconstrained; classOf[o] is a dense class index. Both
	// precomputed so fits performs no map lookups. H edges are
	// intra-class (Kind.Covers requires the class to match), so every
	// member of S(o) is of o's class.
	limitScaled []int64
	classOf     []int
	// S(o): a bit mask over set slots when the set fits in 64 bits (the
	// common case, iterated with no memory traffic), else explicit slot
	// lists in sOf.
	mask []uint64
	sOf  [][]int
	// per scheduling-set member: load per step, current peak, and the
	// slot's dense class index. classSum[y] = Σ peak over the slots of
	// class y, maintained on commit so the Eqn. 3 sum in fits reduces to
	// the class total plus the peak deltas of the |S(o)| touched slots.
	load      [][]int64
	peak      []int64
	slotClass []int
	classSum  []int64
	// Signature cache: operations with identical S(o) (same scheduling-
	// set members, hence same share, class and limit) get identical fits
	// answers at the same step, and the answer stays valid until a
	// commit changes the loads or t advances. Feasibility is antitone in
	// the latency (a longer occupancy only raises peaks), so per
	// signature the largest latency known to fit and the smallest known
	// not to fit bound every repeat query. Deferred operations retried
	// every step collapse to at most two evaluations per signature.
	// sig is nil when |S| exceeds the 64-bit mask.
	sig      []int
	sigEpoch []int
	// masks and sigs keep the backing arrays of mask and sig across
	// resets while mask and sig themselves are nil when unused.
	masks   []uint64
	sigs    []int
	sigOkL  []int
	sigBadL []int
	epoch   int
	lastT   int
	// Doom certificate, kept only for Try (sigLeft is nil otherwise):
	// per signature its count of unplaced operations, S(o) mask, share
	// and class; classLim[y] is class y's scaled limit, -1 when
	// unconstrained.
	sigLeft  []int
	sigLefts []int
	sigMask  []uint64
	sigShare []int64
	sigClass []int
	classLim []int64
}

// eqn3Accountant resets s.acct for the given scheduling set and limits,
// reusing every array and load row from the previous call. doom also
// prepares the doom certificate when the set fits the 64-bit masks.
func (s *Scratch) eqn3Accountant(g *wcg.Graph, set []int, limits Limits, doom bool) *eqn3Acct {
	n := g.D.N()
	a := &s.acct
	a.share = append(a.share[:0], make([]int64, n)...)
	a.limitScaled = append(a.limitScaled[:0], make([]int64, n)...)
	a.classOf = append(a.classOf[:0], make([]int, n)...)
	// Load rows keep their capacity across calls; addLoad regrows them
	// with zeros, so truncating is a reset.
	if cap(a.load) < len(set) {
		a.load = append(a.load[:cap(a.load)], make([][]int64, len(set)-cap(a.load))...)
	}
	a.load = a.load[:len(set)]
	for si := range a.load {
		a.load[si] = a.load[si][:0]
	}
	a.peak = append(a.peak[:0], make([]int64, len(set))...)
	a.slotClass = append(a.slotClass[:0], make([]int, len(set))...)
	a.epoch, a.lastT = 1, 0
	a.mask, a.sOf, a.sig, a.sigLeft = nil, nil, nil, nil
	// Per slot: the dense class index and limit of its class. Any member
	// of S(o) names o's class, so per-op lookups reduce to slot lookups.
	var classes []model.OpType
	slotLimit := append(s.slotLimit[:0], make([]int64, len(set))...)
	s.slotLimit = slotLimit
	for si, ki := range set {
		y := g.Kinds[ki].Class
		id := slices.Index(classes, y)
		if id < 0 {
			id = len(classes)
			classes = append(classes, y)
		}
		a.slotClass[si] = id
		if limit, ok := limits[y]; ok {
			slotLimit[si] = int64(limit)
		} else {
			slotLimit[si] = -1
		}
	}
	a.classSum = append(a.classSum[:0], make([]int64, len(classes))...)
	sizes := append(s.sizes[:0], make([]int, n)...)
	s.sizes = sizes
	a.scale = 1
	if len(set) <= 64 {
		a.masks = append(a.masks[:0], make([]uint64, n)...)
		a.mask = a.masks
		for si, ki := range set {
			bit := uint64(1) << uint(si)
			mask := a.mask
			g.CompatOpBits(ki).ForEach(func(o int) { mask[o] |= bit })
		}
		if s.sigOf == nil {
			s.sigOf = make(map[uint64]int)
		}
		sigOf := s.sigOf
		clear(sigOf)
		a.sigs = append(a.sigs[:0], make([]int, n)...)
		a.sig = a.sigs
		for o := 0; o < n; o++ {
			m := a.mask[o]
			if m == 0 {
				panic("sched: scheduling set does not cover operation")
			}
			sizes[o] = bits.OnesCount64(m)
			a.scale = lcm(a.scale, int64(sizes[o]))
			first := bits.TrailingZeros64(m)
			a.classOf[o] = a.slotClass[first]
			a.limitScaled[o] = slotLimit[first]
			id, ok := sigOf[m]
			if !ok {
				id = len(sigOf)
				sigOf[m] = id
			}
			a.sig[o] = id
		}
		a.sigEpoch = append(a.sigEpoch[:0], make([]int, len(sigOf))...)
		a.sigOkL = append(a.sigOkL[:0], make([]int, len(sigOf))...)
		a.sigBadL = append(a.sigBadL[:0], make([]int, len(sigOf))...)
	} else {
		a.sOf = make([][]int, n)
		for si, ki := range set {
			sOf := a.sOf
			g.CompatOpBits(ki).ForEach(func(o int) { sOf[o] = append(sOf[o], si) })
		}
		for o := 0; o < n; o++ {
			if len(a.sOf[o]) == 0 {
				panic("sched: scheduling set does not cover operation")
			}
			sizes[o] = len(a.sOf[o])
			a.scale = lcm(a.scale, int64(sizes[o]))
			first := a.sOf[o][0]
			a.classOf[o] = a.slotClass[first]
			a.limitScaled[o] = slotLimit[first]
		}
	}
	for o := 0; o < n; o++ {
		a.share[o] = a.scale / int64(sizes[o])
		if a.limitScaled[o] >= 0 {
			a.limitScaled[o] *= a.scale
		}
	}
	if doom && a.sig != nil {
		a.prepareDoom(len(a.sigEpoch), len(classes), slotLimit)
	}
	return a
}

// prepareDoom sets up the doom certificate over nsig signatures and
// nclass classes from the finished per-operation arrays.
func (a *eqn3Acct) prepareDoom(nsig, nclass int, slotLimit []int64) {
	a.sigLefts = append(a.sigLefts[:0], make([]int, nsig)...)
	a.sigLeft = a.sigLefts
	a.sigMask = append(a.sigMask[:0], make([]uint64, nsig)...)
	a.sigShare = append(a.sigShare[:0], make([]int64, nsig)...)
	a.sigClass = append(a.sigClass[:0], make([]int, nsig)...)
	for o, sg := range a.sig {
		a.sigLeft[sg]++
		a.sigMask[sg] = a.mask[o]
		a.sigShare[sg] = a.share[o]
		a.sigClass[sg] = a.classOf[o]
	}
	a.classLim = append(a.classLim[:0], make([]int64, nclass)...)
	for si, y := range a.slotClass {
		a.classLim[y] = slotLimit[si]
		if slotLimit[si] >= 0 {
			a.classLim[y] *= a.scale
		}
	}
}

// doomed reports whether some signature of class y with an unplaced
// member can never be placed again. Placing o on [t, t+l) needs
//
//	classSum_y + Σ_{s∈S(o)} peakDelta_s ≤ N_y·scale,
//
// and peakDelta_s ≥ max(0, share − peak_s) because loads are
// non-negative, so a signature with
//
//	classSum_y + Σ_{s∈S(o)} max(0, share − peak_s) > N_y·scale
//
// fits at no step and no latency. Raising a peak by δ raises classSum_y
// by δ and lowers the bound's other term by at most δ, so the left side
// never falls and a doomed signature stays doomed. Only a commit that
// raised classSum_y can doom a signature of class y.
func (a *eqn3Acct) doomed(y int) bool {
	lim := a.classLim[y]
	if lim < 0 {
		return false
	}
	for sg, left := range a.sigLeft {
		if left == 0 || a.sigClass[sg] != y {
			continue
		}
		sum, w := a.classSum[y], a.sigShare[sg]
		for m := a.sigMask[sg]; m != 0; m &= m - 1 {
			if p := a.peak[bits.TrailingZeros64(m)]; p < w {
				sum += w - p
			}
		}
		if sum > lim {
			return true
		}
	}
	return false
}

// peakDelta returns the increase of slot si's peak if the op occupied
// [t, t+l) with the given share.
func (a *eqn3Acct) peakDelta(si, t, l int, share int64) int64 {
	p := a.peak[si]
	np := p
	for step := t; step < t+l; step++ {
		if v := a.loadAt(si, step) + share; v > np {
			np = v
		}
	}
	return np - p
}

func (a *eqn3Acct) fits(o dfg.OpID, t, l int) bool {
	lim := a.limitScaled[o]
	if lim < 0 {
		return true
	}
	if t != a.lastT {
		a.lastT = t
		a.epoch++
	}
	s := -1
	if a.sig != nil {
		s = a.sig[o]
		if a.sigEpoch[s] == a.epoch {
			if l <= a.sigOkL[s] {
				return true
			}
			if l >= a.sigBadL[s] {
				return false
			}
		}
	}
	// New Σ_{s∈S_y} peak_s if o occupies [t, t+l) with share w on each
	// member of S(o): the maintained class total plus the peak delta of
	// each touched slot.
	sum := a.classSum[a.classOf[o]]
	if a.mask != nil {
		for m := a.mask[o]; m != 0; m &= m - 1 {
			sum += a.peakDelta(bits.TrailingZeros64(m), t, l, a.share[o])
		}
	} else {
		for _, si := range a.sOf[o] {
			sum += a.peakDelta(si, t, l, a.share[o])
		}
	}
	res := sum <= lim
	if s >= 0 {
		if a.sigEpoch[s] != a.epoch {
			a.sigEpoch[s] = a.epoch
			a.sigOkL[s] = 0
			a.sigBadL[s] = int(^uint(0) >> 1)
		}
		if res {
			if l > a.sigOkL[s] {
				a.sigOkL[s] = l
			}
		} else if l < a.sigBadL[s] {
			a.sigBadL[s] = l
		}
	}
	return res
}

// deficit returns how many whole resources of o's class are missing for
// o to occupy [t, t+l) under Eqn. 3 given the committed loads: the class
// sum's excess over the scaled limit, divided by the scale, rounded up.
// 0 means o fits.
func (a *eqn3Acct) deficit(o dfg.OpID, t, l int) int {
	lim := a.limitScaled[o]
	if lim < 0 {
		return 0
	}
	sum := a.classSum[a.classOf[o]]
	if a.mask != nil {
		for m := a.mask[o]; m != 0; m &= m - 1 {
			sum += a.peakDelta(bits.TrailingZeros64(m), t, l, a.share[o])
		}
	} else {
		for _, si := range a.sOf[o] {
			sum += a.peakDelta(si, t, l, a.share[o])
		}
	}
	if sum <= lim {
		return 0
	}
	return int((sum - lim + a.scale - 1) / a.scale)
}

func (a *eqn3Acct) commitSlot(si, t, l int, share int64) {
	for step := t; step < t+l; step++ {
		a.addLoad(si, step, share)
		if v := a.loadAt(si, step); v > a.peak[si] {
			a.classSum[a.slotClass[si]] += v - a.peak[si]
			a.peak[si] = v
		}
	}
}

func (a *eqn3Acct) commit(o dfg.OpID, t, l int) {
	a.epoch++ // loads change; cached fits answers are stale
	if a.mask != nil {
		for m := a.mask[o]; m != 0; m &= m - 1 {
			a.commitSlot(bits.TrailingZeros64(m), t, l, a.share[o])
		}
		return
	}
	for _, si := range a.sOf[o] {
		a.commitSlot(si, t, l, a.share[o])
	}
}

func (a *eqn3Acct) loadAt(si, step int) int64 {
	if step < len(a.load[si]) {
		return a.load[si][step]
	}
	return 0
}

func (a *eqn3Acct) addLoad(si, step int, w int64) {
	for step >= len(a.load[si]) {
		a.load[si] = append(a.load[si], 0)
	}
	a.load[si][step] += w
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 { return a / gcd(a, b) * b }

// ---- Eqn. 2 accounting (ablation) ----

type eqn2Acct struct {
	limits Limits
	class  []model.OpType
	used   map[model.OpType][]int // per class: count per step
}

func newEqn2Accountant(g *wcg.Graph, limits Limits) *eqn2Acct {
	n := g.D.N()
	a := &eqn2Acct{limits: limits, class: make([]model.OpType, n), used: make(map[model.OpType][]int)}
	for o := 0; o < n; o++ {
		a.class[o] = g.D.Op(dfg.OpID(o)).Spec.Type.HardwareClass()
	}
	return a
}

func (a *eqn2Acct) fits(o dfg.OpID, t, l int) bool {
	y := a.class[o]
	limit, ok := a.limits[y]
	if !ok {
		return true
	}
	u := a.used[y]
	for step := t; step < t+l; step++ {
		if step < len(u) && u[step]+1 > limit {
			return false
		}
	}
	return true
}

func (a *eqn2Acct) commit(o dfg.OpID, t, l int) {
	y := a.class[o]
	u := a.used[y]
	for t+l > len(u) {
		u = append(u, 0)
	}
	for step := t; step < t+l; step++ {
		u[step]++
	}
	a.used[y] = u
}

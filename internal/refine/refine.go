// Package refine implements the paper's §2.4: refining wordlength
// information when a schedule violates the user latency constraint λ.
//
// The refinement target is chosen from the *bound critical path* Q_b: the
// sequencing graph is augmented with edges S_b linking operations that
// execute back-to-back on the same bound resource, and Q_b is the set of
// operations with equal ASAP and ALAP times in the augmented graph under
// the bound resource latencies ℓ(o). Within the candidate subset
// W = {o ∈ Q_b : start(o) + L_o ≤ λ}, the victim is the operation that
// loses the smallest proportion of H edges among those incident on kinds
// compatible with it; ties favour operations currently bound to a
// resource faster than their upper bound. The victim's maximum-latency
// H edges are then deleted, lowering L_o before rescheduling.
//
// An Eqn. 3 deadlock round has no schedule to guide the choice, so the
// victim is ChooseVictim over every operation, and such rounds make up
// most of a large ladder. Scratch.StepAll serves them from a lazy
// min-queue of the reducible operations keyed by (del/den, ID), where
// del = MaxLatencyKindCount and den = KindEdgeCount. Deleting a victim's
// edges changes only the victim's own del; every other operation keeps
// its del while its den can only fall. So the key cached for an
// operation the queue did not refine is a lower bound of its true key.
// A popped entry whose key recomputes unchanged is therefore no worse
// than any other operation's true key, and it is ChooseVictim's pick. A
// changed entry goes back in with its true key. The refined victim goes
// back in with its new key while it stays reducible. Deletions the queue
// did not make break the bound, so the queue reloads when it is handed
// another graph or a NumHEdges count it did not leave behind.
package refine

import (
	"slices"

	"repro/internal/bind"
	"repro/internal/dfg"
	"repro/internal/wcg"
)

// BoundCriticalPath returns Q_b for the given schedule and binding: the
// operations critical in the sequencing graph augmented with
// same-resource adjacency edges (Eqn. 7), evaluated with bound latencies.
func BoundCriticalPath(g *wcg.Graph, start []int, b *bind.Binding) []dfg.OpID {
	return new(Scratch).boundCriticalPath(g, start, b)
}

// Scratch is the refinement step's working memory: the flat arrays of
// the bound-critical-path analysis and the candidate lists. A caller
// refining once per schedule/bind/refine round keeps one Scratch for the
// whole ladder so those arrays are allocated once rather than every
// round. The zero value is ready to use; a Scratch must not be used by
// two goroutines at once.
//
// Each buffer is reset with append(buf[:0], make([]T, n)...), which the
// compiler turns into zeroing the reused capacity when it suffices.
type Scratch struct {
	ell, next, cnt, asap, alap []int
	order, byStart             []dfg.OpID
	crit, w, all               []dfg.OpID
	queue                      victimQueue
}

// boundCriticalPath is BoundCriticalPath; the result aliases s.
func (s *Scratch) boundCriticalPath(g *wcg.Graph, start []int, b *bind.Binding) []dfg.OpID {
	d := g.D
	n := d.N()
	if n == 0 {
		return nil
	}
	s.ell = append(s.ell[:0], make([]int, n)...)
	ell := s.ell
	for o := 0; o < n; o++ {
		ell[o] = b.BoundLatency(g, dfg.OpID(o))
	}

	// S_b: for each clique, link operations executing back-to-back with
	// no slack: start(o1) + ℓ(o1) == start(o2). Clique members occupy
	// pairwise disjoint reserved intervals with L_o ≥ ℓ(o) ≥ 1, so a
	// zero-slack pair is necessarily adjacent in start order (any third
	// member between them would have to both finish before and start
	// after the same step): sorting the clique by start and checking
	// consecutive pairs finds every S_b edge in O(m log m). Each
	// operation sits in exactly one clique, so S_b gives it at most one
	// successor: next[o], or -1, beside its sequencing-graph successors.
	s.next = append(s.next[:0], make([]int, n)...)
	next := s.next
	for o := range next {
		next[o] = -1
	}
	byStart := s.byStart
	for _, k := range b.Cliques {
		byStart = append(byStart[:0], k.Ops...)
		// Clique members occupy disjoint intervals, so starts are
		// distinct and the order is total.
		slices.SortFunc(byStart, func(a, b dfg.OpID) int { return start[a] - start[b] })
		for i := 1; i < len(byStart); i++ {
			o1, o2 := byStart[i-1], byStart[i]
			if start[o1]+ell[o1] == start[o2] {
				next[o1] = int(o2)
			}
		}
	}
	s.byStart = byStart

	// All augmented edges strictly increase start (latencies are >= 1 and
	// schedules respect precedence with L_o >= ℓ(o)), so the augmented
	// graph is acyclic and any start-ascending order is topological.
	// Start values are bounded by the makespan: a counting sort (stable,
	// ID-ascending within a step) beats a comparison sort every call.
	maxStart := 0
	for o := 0; o < n; o++ {
		if start[o] > maxStart {
			maxStart = start[o]
		}
	}
	s.cnt = append(s.cnt[:0], make([]int, maxStart+2)...)
	cnt := s.cnt
	for o := 0; o < n; o++ {
		cnt[start[o]+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	s.order = append(s.order[:0], make([]dfg.OpID, n)...)
	order := s.order
	for o := 0; o < n; o++ {
		order[cnt[start[o]]] = dfg.OpID(o)
		cnt[start[o]]++
	}

	s.asap = append(s.asap[:0], make([]int, n)...)
	asap := s.asap
	for _, o := range order {
		v := asap[o] + ell[o]
		for _, u := range d.Succ(o) {
			asap[u] = max(asap[u], v)
		}
		if u := next[o]; u >= 0 {
			asap[u] = max(asap[u], v)
		}
	}
	makespan := 0
	for o := 0; o < n; o++ {
		if f := asap[o] + ell[o]; f > makespan {
			makespan = f
		}
	}
	s.alap = append(s.alap[:0], make([]int, n)...)
	alap := s.alap
	for o := range alap {
		alap[o] = makespan - ell[o]
	}
	for i := n - 1; i >= 0; i-- {
		o := order[i]
		for _, u := range d.Succ(o) {
			alap[o] = min(alap[o], alap[u]-ell[o])
		}
		if u := next[o]; u >= 0 {
			alap[o] = min(alap[o], alap[u]-ell[o])
		}
	}

	crit := s.crit[:0]
	for o := 0; o < n; o++ {
		if asap[o] == alap[o] {
			crit = append(crit, dfg.OpID(o))
		}
	}
	s.crit = crit
	return crit
}

// Candidates returns W: the members of the bound critical path that
// complete before the latency constraint even at their upper-bound
// latency. At least one member of W must be refined for the constraint
// to become satisfiable.
func Candidates(g *wcg.Graph, start []int, qb []dfg.OpID, lambda int) []dfg.OpID {
	return appendCandidates(nil, g, start, qb, lambda)
}

// appendCandidates appends W to dst.
func appendCandidates(dst []dfg.OpID, g *wcg.Graph, start []int, qb []dfg.OpID, lambda int) []dfg.OpID {
	for _, o := range qb {
		if start[o]+g.UpperLatency(o) <= lambda {
			dst = append(dst, o)
		}
	}
	return dst
}

// ChooseVictim selects the operation to refine from the candidate set
// using the paper's metric, considering only reducible operations
// (those whose L_o would strictly decrease while keeping at least one
// kind). Returns false if no candidate is reducible. Both terms of the
// proportion are maintained by the compatibility graph, so a call costs
// O(|cands|).
func ChooseVictim(g *wcg.Graph, b *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool) {
	best := dfg.OpID(-1)
	var bestDel, bestDen int
	var bestFavoured bool
	for _, o := range cands {
		if !g.Reducible(o) {
			continue
		}
		// del edges of o would go, out of the den incident on its kinds.
		del, den := g.MaxLatencyKindCount(o), g.KindEdgeCount(o)
		favoured := b != nil && b.BoundLatency(g, o) < g.UpperLatency(o)
		if best < 0 || lessProportion(del, den, favoured, bestDel, bestDen, bestFavoured) {
			best, bestDel, bestDen, bestFavoured = o, del, den, favoured
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// lessProportion reports whether (del1/den1, favoured1) is a strictly
// better victim than (del2/den2, favoured2): smaller proportion first,
// then bound-below-upper-bound operations. Exact cross multiplication.
func lessProportion(del1, den1 int, fav1 bool, del2, den2 int, fav2 bool) bool {
	l := del1 * den2
	r := del2 * den1
	if l != r {
		return l < r
	}
	return fav1 && !fav2
}

// Policy selects a victim among candidate operations; implementations
// must only return reducible operations. The paper's metric is
// ChooseVictim; FirstReducible exists for the ablation benches.
type Policy func(g *wcg.Graph, b *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool)

// FirstReducible is the naive victim policy: the lowest-ID reducible
// candidate. Used by the victim-policy ablation.
func FirstReducible(g *wcg.Graph, _ *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool) {
	best := dfg.OpID(-1)
	for _, o := range cands {
		if g.Reducible(o) && (best < 0 || o < best) {
			best = o
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// StepBatch performs up to k refinements from a single schedule's
// candidate computation: the bound critical path Q_b and candidate set W
// are computed once, then the policy is re-applied (against the graph as
// it shrinks, so the proportion metric stays current) until k victims
// have been refined or W runs out of reducible operations. When W yields
// nothing it refines a single victim from Q_b, else from the whole
// operation set ("reducing the latency of operations that are not
// members of this set may be necessary"). k=1 is the paper's step: find
// Q_b and W, choose a victim and delete its maximum-latency H edges.
// Larger k trades the paper's reschedule-per-refinement precision for
// one reschedule per batch, which is what makes 1000-operation graphs
// tractable: the number of schedule/bind rounds, not the cost of one
// round, is the superlinear term. Returns the number of operations
// refined; 0 means nothing anywhere is reducible (the problem is
// infeasible for this λ).
func StepBatch(g *wcg.Graph, start []int, b *bind.Binding, lambda int, pick Policy, k int) int {
	return new(Scratch).StepBatch(g, start, b, lambda, pick, k)
}

// StepBatch is the package-level StepBatch running in s.
func (s *Scratch) StepBatch(g *wcg.Graph, start []int, b *bind.Binding, lambda int, pick Policy, k int) int {
	_, done := s.step(g, start, b, lambda, pick, k)
	return done
}

// step refines up to max(k, 1) victims from W, else one from Q_b, else
// one from the whole operation set, and returns the first victim and
// the number refined.
func (s *Scratch) step(g *wcg.Graph, start []int, b *bind.Binding, lambda int, pick Policy, k int) (dfg.OpID, int) {
	qb := s.boundCriticalPath(g, start, b)
	s.w = appendCandidates(s.w[:0], g, start, qb, lambda)
	first, done := dfg.OpID(0), 0
	for done < max(k, 1) {
		o, ok := pick(g, b, s.w)
		if !ok {
			break
		}
		if done == 0 {
			first = o
		}
		g.DeleteMaxLatencyEdges(o)
		done++
	}
	if done > 0 {
		return first, done
	}
	if o, ok := pick(g, b, qb); ok {
		g.DeleteMaxLatencyEdges(o)
		return o, 1
	}
	if o, ok := pick(g, b, s.allOps(g.D.N())); ok {
		g.DeleteMaxLatencyEdges(o)
		return o, 1
	}
	return 0, 0
}

// allOps returns the operation IDs 0, 1, …, n−1, cached in s.
func (s *Scratch) allOps(n int) []dfg.OpID {
	if len(s.all) != n {
		s.all = make([]dfg.OpID, n)
		for i := range s.all {
			s.all[i] = dfg.OpID(i)
		}
	}
	return s.all
}

// StepAll refines up to max(k, 1) victims chosen from the whole operation
// set with no binding, as an Eqn. 3 deadlock round does: each victim is
// pick(g, nil, all) against the graph as it shrinks. A nil pick is
// ChooseVictim, served from the lazy queue of the package comment.
// Returns the number of operations refined; 0 means nothing anywhere is
// reducible.
func (s *Scratch) StepAll(g *wcg.Graph, pick Policy, k int) int {
	done := 0
	if pick != nil {
		all := s.allOps(g.D.N())
		for ; done < max(k, 1); done++ {
			o, ok := pick(g, nil, all)
			if !ok {
				break
			}
			g.DeleteMaxLatencyEdges(o)
		}
		return done
	}
	q := &s.queue
	if q.g != g || q.edges != g.NumHEdges() {
		q.load(g)
	}
	for ; done < max(k, 1); done++ {
		o, ok := q.pop(g)
		if !ok {
			break
		}
		g.DeleteMaxLatencyEdges(o)
		if g.Reducible(o) {
			q.push(keyOf(g, o))
		}
	}
	q.edges = g.NumHEdges()
	return done
}

// victimQueue is StepAll's lazy queue: a binary min-heap holding one
// entry per reducible operation of g, keyed by a lower bound of its
// (del/den, ID). edges is g.NumHEdges() as the queue last left it.
type victimQueue struct {
	g     *wcg.Graph
	edges int
	heap  []victimKey
}

// victimKey is an operation with the del and den its key was taken at.
type victimKey struct {
	del, den int
	op       dfg.OpID
}

// keyOf is o's true key on g.
func keyOf(g *wcg.Graph, o dfg.OpID) victimKey {
	return victimKey{g.MaxLatencyKindCount(o), g.KindEdgeCount(o), o}
}

// less orders keys by del/den (exact cross multiplication), then ID.
func (a victimKey) less(b victimKey) bool {
	l, r := a.del*b.den, b.del*a.den
	return l < r || l == r && a.op < b.op
}

// load fills the queue with g's reducible operations at their true keys.
func (q *victimQueue) load(g *wcg.Graph) {
	q.g, q.heap = g, q.heap[:0]
	for o := 0; o < g.D.N(); o++ {
		if id := dfg.OpID(o); g.Reducible(id) {
			q.heap = append(q.heap, keyOf(g, id))
		}
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// pop removes and returns ChooseVictim(g, nil, all), or false when no
// operation is reducible.
func (q *victimQueue) pop(g *wcg.Graph) (dfg.OpID, bool) {
	for len(q.heap) > 0 {
		// Every entry is reducible: only its own refinement makes an
		// operation irreducible, and the queue re-pushes a victim only
		// while it is reducible.
		k := keyOf(g, q.heap[0].op)
		if k == q.heap[0] {
			q.removeTop()
			return k.op, true
		}
		q.heap[0] = k
		q.down(0)
	}
	return 0, false
}

func (q *victimQueue) push(v victimKey) {
	q.heap = append(q.heap, v)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].less(h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *victimQueue) removeTop() {
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	q.down(0)
}

func (q *victimQueue) down(i int) {
	h := q.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l].less(h[m]) {
			m = l
		}
		if r < len(h) && h[r].less(h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Package wcg implements the wordlength compatibility graph G(V, E) of the
// paper (§2.1): V = O ∪ R partitions into operations and
// resource-wordlength kinds; E = C ∪ H partitions into directed
// time-compatibility edges between operations (a transitive orientation
// derived from the schedule) and undirected operation–kind edges recording
// which kinds can currently execute which operations.
//
// H edges are the mutable state of Algorithm DPAlloc: refinement deletes
// {o, r} edges to shrink the latency upper bound L_o of an operation.
// C edges are never stored; they are implied by reserved execution
// intervals [start(o), start(o)+L_o), which form an interval order, so the
// orientation is transitive by construction (Golumbic [11]) and maximum
// cliques of a kind's compatibility subgraph are maximum sets of pairwise
// disjoint intervals, found in linear time after sorting.
//
// The H edges are maintained incrementally: bit sets index both sides of
// the bipartite adjacency (op→kinds and kind→ops), the per-operation
// latency bounds L_o and min ℓ are cached and repaired on deletion, and
// the per-kind operation lists handed to schedulers are rebuilt lazily
// only for kinds whose edge set actually changed. Membership tests and
// edge counts are O(1) instead of adjacency-list scans — the difference
// between 100- and 1000-node graphs being tractable.
//
// A Graph only ever loses H edges. So O(r) and |O(r)| can only shrink,
// and so can KindEdgeCount(o) of every operation o but the one refined.
// The incremental consumers rest on that monotonicity rather than
// on state kept here: sched replays its last scheduling-set greedy on the
// same *Graph, and refine keeps a lazy victim queue whose cached metric is
// a lower bound. Both detect a different *Graph by pointer; NumHEdges,
// which strictly falls with every deletion, tells refine whether anyone
// else deleted edges since it last looked.
package wcg

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dfg"
	"repro/internal/model"
)

// Graph is a wordlength compatibility graph bound to one sequencing graph
// and one extracted kind set.
type Graph struct {
	D     *dfg.Graph
	Lib   *model.Library
	Kinds []model.Kind

	// h[o] lists indices into Kinds compatible with operation o, in
	// extraction order (area ascending within class). Invariant: never
	// empty for a valid graph.
	h [][]int
	// hBits[o] mirrors h[o] as a bit set over kind indices.
	hBits []bitset.Set
	// opBits[k] is O(r) as a bit set over operation IDs.
	opBits []bitset.Set
	// ops[k] caches O(r) in ID order; opsDirty[k] marks it stale after
	// an edge deletion touching kind k. opCount[k] = |O(r)| is
	// maintained incrementally so counting never needs a popcount.
	ops      [][]dfg.OpID
	opsDirty []bool
	opCount  []int
	// lat[k] caches Lib.Latency(Kinds[k]).
	lat []int
	// upper[o] and min[o] cache L_o and min ℓ over o's current kinds;
	// nmax[o] counts o's kinds at latency L_o.
	upper []int
	min   []int
	nmax  []int
	// edges counts the H edges remaining.
	edges int
	// topo memoizes D.TopoOrder(): D is immutable for the lifetime of
	// the compatibility graph, and the scheduler asks every iteration.
	topo []dfg.OpID
}

// TopoOrder returns a topological order of the bound sequencing graph,
// memoized across calls. The slice must not be modified.
func (g *Graph) TopoOrder() ([]dfg.OpID, error) {
	if g.topo == nil {
		order, err := g.D.TopoOrder()
		if err != nil {
			return nil, err
		}
		g.topo = order
	}
	return g.topo, nil
}

// Build constructs the initial compatibility graph: kinds extracted from
// the operation set with join closure, and an H edge {o, r} exactly when
// kind r covers operation o ("of sufficient wordlength ... and of the
// same type").
func Build(d *dfg.Graph, lib *model.Library) (*Graph, error) {
	kinds := model.ExtractKinds(d.Specs(), lib)
	return BuildWithKinds(d, lib, kinds)
}

// OwnKinds returns one kind per distinct operation signature of d, in
// first-use order, without join closure: the kind set of the no-closure
// ablation and of the wordlength-blind baselines.
func OwnKinds(d *dfg.Graph) []model.Kind {
	seen := make(map[model.Kind]bool)
	var kinds []model.Kind
	for _, o := range d.Ops() {
		k := o.Spec.MinKind()
		if !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// BuildWithKinds constructs the compatibility graph over a caller-supplied
// kind set (used by the no-closure ablation). Every operation must be
// covered by at least one kind.
func BuildWithKinds(d *dfg.Graph, lib *model.Library, kinds []model.Kind) (*Graph, error) {
	g := &Graph{D: d, Lib: lib, Kinds: kinds}
	g.lat = make([]int, len(kinds))
	for i, k := range kinds {
		g.lat[i] = lib.Latency(k)
		if g.lat[i] < 1 {
			return nil, fmt.Errorf("wcg: kind %v has non-positive latency", k)
		}
	}
	n := d.N()
	g.h = make([][]int, n)
	g.hBits = make([]bitset.Set, n)
	g.opBits = make([]bitset.Set, len(kinds))
	for ki := range kinds {
		g.opBits[ki] = bitset.New(n)
	}
	g.ops = make([][]dfg.OpID, len(kinds))
	g.opsDirty = make([]bool, len(kinds))
	g.opCount = make([]int, len(kinds))
	for ki := range kinds {
		g.opsDirty[ki] = true
	}
	g.upper = make([]int, n)
	g.min = make([]int, n)
	g.nmax = make([]int, n)
	for _, o := range d.Ops() {
		g.hBits[o.ID] = bitset.New(len(kinds))
		for ki, k := range kinds {
			if k.Covers(o.Spec.Type, o.Spec.Sig) {
				g.h[o.ID] = append(g.h[o.ID], ki)
				g.hBits[o.ID].Add(ki)
				g.opBits[ki].Add(int(o.ID))
				g.opCount[ki]++
				g.edges++
			}
		}
		if len(g.h[o.ID]) == 0 {
			return nil, fmt.Errorf("wcg: operation %d (%v) has no covering kind", o.ID, o.Spec)
		}
		g.recomputeBounds(o.ID)
	}
	return g, nil
}

// recomputeBounds repairs the cached latency bounds of o, and the count
// of its kinds at the upper bound, from its current kind list.
func (g *Graph) recomputeBounds(o dfg.OpID) {
	lo, hi, nhi := g.lat[g.h[o][0]], g.lat[g.h[o][0]], 1
	for _, ki := range g.h[o][1:] {
		switch l := g.lat[ki]; {
		case l > hi:
			hi, nhi = l, 1
		case l == hi:
			nhi++
		case l < lo:
			lo = l
		}
	}
	g.min[o], g.upper[o], g.nmax[o] = lo, hi, nhi
}

// KindLatency returns the cached latency ℓ(r) of kind index k.
func (g *Graph) KindLatency(k int) int { return g.lat[k] }

// CompatKinds returns the kind indices currently compatible with o
// (the H edges of o). The slice must not be modified.
func (g *Graph) CompatKinds(o dfg.OpID) []int { return g.h[o] }

// Compatible reports whether the H edge {o, kind k} is present.
func (g *Graph) Compatible(o dfg.OpID, k int) bool { return g.hBits[o].Has(k) }

// CompatOps returns O(r): the operations with an H edge to kind index k,
// in ID order. The slice must not be modified; it stays valid until the
// next deletion touching k.
func (g *Graph) CompatOps(k int) []dfg.OpID {
	if g.opsDirty[k] {
		ops := g.ops[k][:0]
		g.opBits[k].ForEach(func(i int) { ops = append(ops, dfg.OpID(i)) })
		g.ops[k] = ops
		g.opsDirty[k] = false
	}
	return g.ops[k]
}

// CompatOpBits returns O(r) as a bit set over operation IDs. The set must
// not be modified.
func (g *Graph) CompatOpBits(k int) bitset.Set { return g.opBits[k] }

// CompatOpCount returns |O(r)|, maintained incrementally across edge
// deletions.
func (g *Graph) CompatOpCount(k int) int { return g.opCount[k] }

// UpperLatency returns L_o: the largest latency among the kinds currently
// compatible with o. This is the latency upper bound the scheduler
// reserves so that any subsequent binding never violates the schedule.
func (g *Graph) UpperLatency(o dfg.OpID) int { return g.upper[o] }

// MinLatency returns the smallest latency among the kinds currently
// compatible with o.
func (g *Graph) MinLatency(o dfg.OpID) int { return g.min[o] }

// MaxLatencyKindCount returns the number of kinds compatible with o at
// latency L_o: the H edges DeleteMaxLatencyEdges(o) would delete.
func (g *Graph) MaxLatencyKindCount(o dfg.OpID) int { return g.nmax[o] }

// KindEdgeCount returns Σ_{r∈H(o)} |O(r)|: the number of H edges incident
// on the kinds compatible with o, summed over H(o) on each call.
func (g *Graph) KindEdgeCount(o dfg.OpID) int {
	den := 0
	for _, ki := range g.h[o] {
		den += g.opCount[ki]
	}
	return den
}

// UpperLatSlice returns L_o for every operation as a slice indexed by
// operation ID, for indexed access in scheduler hot loops. The slice is
// the graph's internal state: callers must not modify it and must not
// retain it across refinement steps.
func (g *Graph) UpperLatSlice() []int { return g.upper }

// UpperLatencies returns L_o for every operation as a dfg.Latencies.
func (g *Graph) UpperLatencies() dfg.Latencies {
	ls := append([]int(nil), g.upper...)
	return func(id dfg.OpID) int { return ls[id] }
}

// Reducible reports whether deleting o's maximum-latency H edges would
// strictly reduce L_o while leaving at least one edge: i.e. o has
// compatible kinds at two or more distinct latencies.
func (g *Graph) Reducible(o dfg.OpID) bool { return g.min[o] < g.upper[o] }

// DeleteMaxLatencyEdges removes every H edge {o, r} with ℓ(r) == L_o
// (the refinement step of §2.4) and returns the number of edges deleted.
// It refuses to act, returning 0, when o is not Reducible, so an
// operation always keeps at least one compatible kind.
func (g *Graph) DeleteMaxLatencyEdges(o dfg.OpID) int {
	if !g.Reducible(o) {
		return 0
	}
	lmax := g.upper[o]
	kept := g.h[o][:0]
	deleted := 0
	for _, ki := range g.h[o] {
		if g.lat[ki] == lmax {
			deleted++
			g.hBits[o].Remove(ki)
			g.opBits[ki].Remove(int(o))
			g.opCount[ki]--
			g.opsDirty[ki] = true
		} else {
			kept = append(kept, ki)
		}
	}
	g.h[o] = kept
	g.edges -= deleted
	// Deleted edges all carried the maximum latency and Reducible
	// guaranteed a strictly smaller one survives, so min is unchanged.
	g.recomputeBounds(o)
	return deleted
}

// FullyRefine drives the graph to the refinement fixpoint: every
// operation keeps exactly its minimum-latency kinds. Deletions are
// per-operation independent, so the fixpoint is unique — it is the state
// any sequence of DeleteMaxLatencyEdges calls converges to once no
// operation is Reducible. Returns the number of edges deleted.
func (g *Graph) FullyRefine() int {
	deleted := 0
	for o := 0; o < g.D.N(); o++ {
		for g.Reducible(dfg.OpID(o)) {
			deleted += g.DeleteMaxLatencyEdges(dfg.OpID(o))
		}
	}
	return deleted
}

// NumHEdges returns the total number of H edges remaining.
func (g *Graph) NumHEdges() int { return g.edges }

// Clone returns a deep copy sharing the immutable sequencing graph,
// library and kind set but with independent H edges.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		D: g.D, Lib: g.Lib, Kinds: g.Kinds, lat: g.lat,
		upper: append([]int(nil), g.upper...),
		min:   append([]int(nil), g.min...),
		nmax:  append([]int(nil), g.nmax...),
		edges: g.edges,
		topo:  g.topo,
	}
	c.h = make([][]int, len(g.h))
	c.hBits = make([]bitset.Set, len(g.hBits))
	for i := range g.h {
		c.h[i] = append([]int(nil), g.h[i]...)
		c.hBits[i] = g.hBits[i].Clone()
	}
	c.opBits = make([]bitset.Set, len(g.opBits))
	c.ops = make([][]dfg.OpID, len(g.opBits))
	c.opsDirty = make([]bool, len(g.opBits))
	c.opCount = append([]int(nil), g.opCount...)
	for k := range g.opBits {
		c.opBits[k] = g.opBits[k].Clone()
		c.opsDirty[k] = true
	}
	return c
}

// Interval is a reserved execution interval [Start, End) of an operation.
type Interval struct {
	Op    dfg.OpID
	Start int
	End   int
}

// Before reports the C edge (a, b): a is scheduled to complete before b
// starts.
func (a Interval) Before(b Interval) bool { return a.End <= b.Start }

// Overlaps reports whether the two intervals share any control step, i.e.
// neither C edge direction exists between them.
func (a Interval) Overlaps(b Interval) bool { return !a.Before(b) && !b.Before(a) }

// MaxChain returns a maximum-cardinality subset of the intervals that is
// pairwise disjoint — a maximum clique of the transitively oriented
// subgraph G'(O, C) induced by the given operations. For interval orders
// this is the classic activity-selection problem: greedily taking the
// earliest finishing compatible interval is optimal and runs in
// O(n log n). The input slice is reordered in place.
func MaxChain(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sortIntervals(ivs)
	chain := ivs[:1:1]
	for _, iv := range ivs[1:] {
		if chain[len(chain)-1].Before(iv) {
			chain = append(chain, iv)
		}
	}
	return chain
}

// IsChain reports whether the intervals are pairwise disjoint, i.e. form a
// clique of G'(O, C). O(n log n); the input slice is reordered in place.
func IsChain(ivs []Interval) bool {
	sortIntervals(ivs)
	for i := 1; i < len(ivs); i++ {
		if !ivs[i-1].Before(ivs[i]) {
			return false
		}
	}
	return true
}

// sortIntervals orders by end time, breaking ties by start then op ID, so
// both MaxChain and IsChain are deterministic.
func sortIntervals(ivs []Interval) {
	if sort.SliceIsSorted(ivs, func(i, j int) bool { return lessInterval(ivs[i], ivs[j]) }) {
		return
	}
	sort.Slice(ivs, func(i, j int) bool { return lessInterval(ivs[i], ivs[j]) })
}

func lessInterval(a, b Interval) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Op < b.Op
}

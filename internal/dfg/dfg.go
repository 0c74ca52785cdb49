// Package dfg implements sequencing graphs P(O, S): directed acyclic
// graphs of operations whose edges are data dependencies, in the sense of
// De Micheli's "Synthesis and Optimization of Digital Circuits" as used by
// the paper. It provides construction, validation, topological ordering,
// ASAP/ALAP analysis under arbitrary per-operation latencies, and the
// minimum feasible latency bound λ_min.
package dfg

import (
	"errors"
	"fmt"

	"repro/internal/model"
)

// OpID identifies an operation within one Graph; IDs are dense, starting
// at zero, in insertion order.
type OpID int

// Op is one operation of the sequencing graph.
type Op struct {
	ID   OpID
	Name string // optional human-readable label
	Spec model.OpSpec
}

// Graph is a sequencing graph P(O, S). The zero value is an empty graph
// ready for use.
type Graph struct {
	ops  []Op
	succ [][]OpID
	pred [][]OpID
}

// New returns an empty sequencing graph.
func New() *Graph { return &Graph{} }

// AddOp appends an operation and returns its ID.
func (g *Graph) AddOp(name string, typ model.OpType, sig model.Signature) OpID {
	id := OpID(len(g.ops))
	g.ops = append(g.ops, Op{ID: id, Name: name, Spec: model.OpSpec{Type: typ, Sig: sig}})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddDep records a data dependency: from must complete before to starts.
// Duplicate edges are ignored.
func (g *Graph) AddDep(from, to OpID) error {
	if !g.valid(from) || !g.valid(to) {
		return fmt.Errorf("dfg: dependency %d->%d references unknown operation", from, to)
	}
	if from == to {
		return fmt.Errorf("dfg: self dependency on operation %d", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return nil
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	return nil
}

func (g *Graph) valid(id OpID) bool { return id >= 0 && int(id) < len(g.ops) }

// N returns the number of operations.
func (g *Graph) N() int { return len(g.ops) }

// Op returns the operation with the given ID.
func (g *Graph) Op(id OpID) Op { return g.ops[id] }

// Ops returns all operations in ID order. The slice must not be modified.
func (g *Graph) Ops() []Op { return g.ops }

// Succ returns the successors of id. The slice must not be modified.
func (g *Graph) Succ(id OpID) []OpID { return g.succ[id] }

// Pred returns the predecessors of id. The slice must not be modified.
func (g *Graph) Pred(id OpID) []OpID { return g.pred[id] }

// Specs returns the operation specs in ID order, the input expected by
// model.ExtractKinds.
func (g *Graph) Specs() []model.OpSpec {
	specs := make([]model.OpSpec, len(g.ops))
	for i, o := range g.ops {
		specs[i] = o.Spec
	}
	return specs
}

// ErrCyclic is returned by Validate and TopoOrder when the graph contains
// a dependency cycle.
var ErrCyclic = errors.New("dfg: sequencing graph contains a cycle")

// TopoOrder returns the operations in a topological order (stable: among
// simultaneously ready operations, lower IDs first), or ErrCyclic.
//
// The order is the one produced by repeated ascending ID sweeps placing
// every ready operation as its index is passed — an operation freed at an
// index the current sweep already passed waits for the next sweep. That
// sweep semantics is preserved exactly (downstream consumers derive
// deterministic priorities and annealing ranks from it) but simulated
// with two min-heaps in O((V+E) log V) instead of O(V²) sweeps.
func (g *Graph) TopoOrder() ([]OpID, error) {
	n := len(g.ops)
	// One buffer: the in-degrees, then room for each heap to hold every
	// operation, so neither ever grows.
	buf := make([]int, 3*n)
	indeg := buf[:n]
	for _, ss := range g.succ {
		for _, s := range ss {
			indeg[s]++
		}
	}
	// cur holds ready IDs the current sweep has not passed yet; next
	// holds IDs freed behind the sweep position, placed next round.
	cur, next := intHeap(buf[n:n:2*n]), intHeap(buf[2*n:2*n])
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			cur.push(i)
		}
	}
	order := make([]OpID, 0, n)
	for len(order) < n {
		if len(cur) == 0 {
			if len(next) == 0 {
				return nil, ErrCyclic
			}
			cur, next = next, cur
		}
		i := cur.pop()
		order = append(order, OpID(i))
		for _, s := range g.succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				if int(s) > i {
					cur.push(int(s))
				} else {
					next.push(int(s))
				}
			}
		}
	}
	return order, nil
}

// intHeap is a minimal binary min-heap over ints, avoiding the
// container/heap interface indirection on the scheduling hot path.
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

// Validate checks structural sanity: acyclicity and valid signatures.
func (g *Graph) Validate() error {
	for _, o := range g.ops {
		if !o.Spec.Sig.Valid() {
			return fmt.Errorf("dfg: operation %d (%s) has invalid signature %v", o.ID, o.Name, o.Spec.Sig)
		}
	}
	_, err := g.TopoOrder()
	return err
}

// Latencies maps each operation to a positive cycle count.
type Latencies func(OpID) int

// ASAP returns the as-soon-as-possible start step of every operation under
// the given latencies with unconstrained resources, along with the
// resulting makespan (first step is 0; makespan is the completion step of
// the last operation). The graph must be acyclic.
func (g *Graph) ASAP(lat Latencies) (start []int, makespan int, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	start = make([]int, len(g.ops))
	for _, id := range order {
		s := 0
		for _, p := range g.pred[id] {
			if f := start[p] + lat(p); f > s {
				s = f
			}
		}
		start[id] = s
		if f := s + lat(id); f > makespan {
			makespan = f
		}
	}
	return start, makespan, nil
}

// ALAP returns the as-late-as-possible start step of every operation such
// that all operations complete by deadline under the given latencies.
// It returns an error if the deadline is infeasible (some start < 0) or
// the graph is cyclic.
func (g *Graph) ALAP(lat Latencies, deadline int) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	start := make([]int, len(g.ops))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		s := deadline - lat(id)
		for _, c := range g.succ[id] {
			if v := start[c] - lat(id); v < s {
				s = v
			}
		}
		if s < 0 {
			return nil, fmt.Errorf("dfg: deadline %d infeasible at operation %d", deadline, id)
		}
		start[id] = s
	}
	return start, nil
}

// MinLatencies returns the per-operation minimum latencies (each operation
// on its own minimal kind) under the library.
func (g *Graph) MinLatencies(lib *model.Library) Latencies {
	lats := make([]int, len(g.ops))
	for i, o := range g.ops {
		lats[i] = model.MinLatency(o.Spec, lib)
	}
	return func(id OpID) int { return lats[id] }
}

// MinMakespan returns λ_min: the minimum possible overall latency of the
// graph, i.e. the critical-path length with every operation at its fastest
// (own-wordlength) latency and unconstrained resources. This is the λ_min
// the paper relaxes by 0–30% to create latency constraints.
func (g *Graph) MinMakespan(lib *model.Library) (int, error) {
	_, ms, err := g.ASAP(g.MinLatencies(lib))
	return ms, err
}

// CriticalOps returns the operations with zero slack (ASAP == ALAP against
// the ASAP makespan) under the given latencies: the standard critical path
// determined purely by sequencing precedence.
func (g *Graph) CriticalOps(lat Latencies) ([]OpID, error) {
	asap, ms, err := g.ASAP(lat)
	if err != nil {
		return nil, err
	}
	alap, err := g.ALAP(lat, ms)
	if err != nil {
		return nil, err
	}
	var crit []OpID
	for i := range g.ops {
		if asap[i] == alap[i] {
			crit = append(crit, OpID(i))
		}
	}
	return crit, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ops:  append([]Op(nil), g.ops...),
		succ: make([][]OpID, len(g.succ)),
		pred: make([][]OpID, len(g.pred)),
	}
	for i := range g.succ {
		c.succ[i] = append([]OpID(nil), g.succ[i]...)
		c.pred[i] = append([]OpID(nil), g.pred[i]...)
	}
	return c
}

// NumEdges returns the number of dependency edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ss := range g.succ {
		n += len(ss)
	}
	return n
}

// Package pipeline extends datapath allocation to functionally pipelined
// operation: the sequencing graph executes once per initiation interval
// II, with successive iterations overlapped in the datapath. The paper
// allocates for a single iteration against a latency bound λ; for DSP
// front ends the iteration *rate* is the real constraint, and II < λ
// forces the binder to respect resource occupancy *modulo II* — two
// operations whose executions are disjoint in absolute time can still
// collide when iterations overlap.
//
// The model keeps the paper's non-pipelined functional units: a unit
// executing an operation of latency ℓ is busy for ℓ consecutive cycles
// each iteration, so ℓ ≤ II must hold for every binding (a unit cannot
// still be busy when its next iteration's input arrives), and two
// operations may share a unit only when their busy windows are disjoint
// as circular arcs modulo II.
//
// Allocation reuses the paper's machinery — wordlength compatibility
// graph, latency-upper-bound scheduling, bound-critical-path refinement —
// with two changes: kinds slower than II are deleted from H up front,
// and binding packs circular arcs greedily (first-fit by area-ascending
// kind order) instead of interval chains, because maximum circular-arc
// cliques no longer have the transitive-orientation structure §2.3
// exploits.
//
// The per-class resource limits N_y come from core.Search, DPAlloc's
// own resource-bound search, with one change: a unit offers at most
// min(II, λ) busy cycles per iteration, so that is the search's period.
// The search tries one configuration at a time. DPAlloc speculates on
// large graphs by predicting the next configuration from the refinement
// fixpoint G_min, where its ladders fail; this ladder fails at the first
// Eqn. 3 deadlock instead, long before G_min, so the prediction's
// premise does not hold.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/refine"
	"repro/internal/sched"
	"repro/internal/wcg"
)

// ErrInfeasible is returned when no datapath meets λ and II together.
var ErrInfeasible = errors.New("pipeline: constraints infeasible")

// Options tunes the pipelined allocator.
type Options struct {
	// Victim overrides the refinement victim policy; nil uses the
	// paper's smallest-proportion metric.
	Victim refine.Policy
}

// Stats reports how the allocation ran.
type Stats struct {
	Iterations  int // schedule/bind rounds
	Refinements int // H-edge deletion steps
	Kinds       int // size of the II-feasible kind set
}

// Allocate produces a datapath whose schedule meets λ and whose binding
// is legal under initiation interval II.
//
// Like core.Allocate, it drives the per-class resource limits N_y from
// their utilisation lower bound ⌈Σℓ_min / min(II, λ)⌉ upward (see the
// package comment). The first feasible configuration serialises
// operations as much as the constraints allow, which is what creates
// modulo-disjoint windows for the binder to share.
func Allocate(d *dfg.Graph, lib *model.Library, lambda, ii int, opt Options) (*datapath.Datapath, Stats, error) {
	return AllocateCtx(context.Background(), d, lib, lambda, ii, opt)
}

// AllocateCtx is Allocate with cancellation: the schedule/bind/refine
// loop and the outer resource-bound search check ctx between rounds and
// return ctx.Err() promptly once it is done.
func AllocateCtx(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda, ii int, opt Options) (*datapath.Datapath, Stats, error) {
	var stats Stats
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	if ii < 1 {
		return nil, stats, fmt.Errorf("pipeline: initiation interval %d < 1", ii)
	}
	if d.N() == 0 {
		return &datapath.Datapath{}, stats, nil
	}

	base, err := buildWCG(d, lib, ii)
	if err != nil {
		return nil, stats, err
	}
	stats.Kinds = len(base.Kinds)

	pick := opt.Victim
	if pick == nil {
		pick = refine.ChooseVictim
	}
	period := max(1, min(ii, lambda))
	dp, _, err := core.Search(ctx, d, lib, period, func(ctx context.Context, limits sched.Limits) (*datapath.Datapath, error) {
		return allocateFixed(ctx, base.Clone(), lib, lambda, ii, limits, pick, &stats)
	})
	return dp, stats, err
}

// buildWCG builds the compatibility graph and pre-refines it: kinds
// slower than II can never be bound.
func buildWCG(d *dfg.Graph, lib *model.Library, ii int) (*wcg.Graph, error) {
	g, err := wcg.Build(d, lib)
	if err != nil {
		return nil, err
	}
	for _, o := range d.Ops() {
		kept := 0
		for _, ki := range g.CompatKinds(o.ID) {
			if g.KindLatency(ki) <= ii {
				kept++
			}
		}
		if kept == 0 {
			return nil, fmt.Errorf("%w: operation %d (%v) has no kind with latency ≤ II=%d",
				ErrInfeasible, o.ID, d.Op(o.ID).Spec, ii)
		}
		for g.UpperLatency(o.ID) > ii {
			g.DeleteMaxLatencyEdges(o.ID)
		}
	}
	return g, nil
}

// allocateFixed runs the schedule/bind/refine loop for one resource-
// limit configuration. Its infeasibility errors wrap core.ErrInfeasible
// too, which is what makes core.Search grow a class after them.
func allocateFixed(ctx context.Context, g *wcg.Graph, lib *model.Library, lambda, ii int, limits sched.Limits, pick refine.Policy, stats *Stats) (*datapath.Datapath, error) {
	var (
		ss sched.Scratch
		rs refine.Scratch
	)
	maxIters := g.NumHEdges() + 2
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.Iterations++
		r, err := ss.List(g, limits)
		if err != nil {
			if errors.Is(err, sched.ErrResourceInfeasible) {
				return nil, fmt.Errorf("%w: %w: %w", ErrInfeasible, core.ErrInfeasible, err)
			}
			return nil, err
		}
		dp, b := bindModulo(g, r.Start, ii)
		if dp.Makespan(lib) <= lambda {
			if err := Verify(g.D, lib, dp, lambda, ii); err != nil {
				return nil, fmt.Errorf("pipeline: internal error, illegal datapath: %w", err)
			}
			return dp, nil
		}
		if rs.StepBatch(g, r.Start, b, lambda, pick, 1) == 0 {
			return nil, fmt.Errorf("%w: λ=%d below achievable latency %d at II=%d: %w",
				ErrInfeasible, lambda, dp.Makespan(lib), ii, core.ErrInfeasible)
		}
		stats.Refinements++
	}
	return nil, fmt.Errorf("pipeline: refinement loop exceeded %d iterations", maxIters)
}

// arc is a busy window modulo II: the cycle set {(s + k) mod II : 0 <= k < l}.
type arc struct {
	s int // start mod II
	l int // length, 1 <= l <= II
}

// overlaps reports whether two circular arcs share a cycle: b's start
// falls inside a, or a's start falls inside b (forward distances mod II).
func (a arc) overlaps(b arc, ii int) bool {
	if a.l >= ii || b.l >= ii {
		return true
	}
	d := ((b.s-a.s)%ii + ii) % ii
	return d < a.l || ii-d < b.l
}

// bindModulo greedily packs operations onto instances under the modulo
// occupancy rule. Operations are processed in start order; each joins
// the first existing instance whose kind covers it and whose occupied
// arcs stay pairwise disjoint, or opens a new instance with its
// cheapest II-feasible covering kind. The schedule used latency upper
// bounds, so rebinding to any compatible kind never violates it. The
// second result expresses the same binding in bind.Binding form for the
// refinement step's bound-critical-path computation.
func bindModulo(g *wcg.Graph, start []int, ii int) (*datapath.Datapath, *bind.Binding) {
	d := g.D
	n := d.N()
	order := make([]dfg.OpID, n)
	for i := range order {
		order[i] = dfg.OpID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if start[order[a]] != start[order[b]] {
			return start[order[a]] < start[order[b]]
		}
		return order[a] < order[b]
	})

	type inst struct {
		kind int
		arcs []arc
		ops  []dfg.OpID
	}
	var insts []*inst
	instOf := make([]int, n)

	fits := func(in *inst, o dfg.OpID) bool {
		if !g.Compatible(o, in.kind) {
			return false
		}
		a := arc{s: start[o] % ii, l: g.KindLatency(in.kind)}
		for _, b := range in.arcs {
			if a.overlaps(b, ii) {
				return false
			}
		}
		return true
	}

	for _, o := range order {
		placed := -1
		for idx, in := range insts {
			if fits(in, o) {
				placed = idx
				break
			}
		}
		if placed < 0 {
			// Cheapest compatible kind; CompatKinds is area-ascending
			// within the hardware class by construction.
			ki := g.CompatKinds(o)[0]
			best := g.Lib.Area(g.Kinds[ki])
			for _, k := range g.CompatKinds(o) {
				if a := g.Lib.Area(g.Kinds[k]); a < best {
					ki, best = k, a
				}
			}
			insts = append(insts, &inst{kind: ki})
			placed = len(insts) - 1
		}
		in := insts[placed]
		in.arcs = append(in.arcs, arc{s: start[o] % ii, l: g.KindLatency(in.kind)})
		in.ops = append(in.ops, o)
		instOf[o] = placed
	}

	dp := &datapath.Datapath{
		Start:  append([]int(nil), start...),
		InstOf: instOf,
	}
	b := &bind.Binding{CliqueOf: append([]int(nil), instOf...)}
	for _, in := range insts {
		dp.Instances = append(dp.Instances, datapath.Instance{
			Kind: g.Kinds[in.kind],
			Ops:  append([]dfg.OpID(nil), in.ops...),
		})
		b.Cliques = append(b.Cliques, bind.Clique{Kind: in.kind, Ops: append([]dfg.OpID(nil), in.ops...)})
	}
	return dp, b
}

// Verify checks pipelined legality: the datapath is legal for a single
// iteration (datapath.Verify), every bound latency fits within II, and
// operations sharing an instance occupy pairwise disjoint circular arcs
// modulo II.
func Verify(d *dfg.Graph, lib *model.Library, dp *datapath.Datapath, lambda, ii int) error {
	if ii < 1 {
		return fmt.Errorf("pipeline: initiation interval %d < 1", ii)
	}
	if err := dp.Verify(d, lib, lambda); err != nil {
		return err
	}
	for idx, in := range dp.Instances {
		l := lib.Latency(in.Kind)
		if l > ii {
			return fmt.Errorf("pipeline: instance %d (%v) latency %d exceeds II=%d", idx, in.Kind, l, ii)
		}
		for i := 0; i < len(in.Ops); i++ {
			for j := i + 1; j < len(in.Ops); j++ {
				a := arc{s: dp.Start[in.Ops[i]] % ii, l: l}
				b := arc{s: dp.Start[in.Ops[j]] % ii, l: l}
				if a.overlaps(b, ii) {
					return fmt.Errorf("pipeline: operations %d and %d collide modulo II=%d on instance %d",
						in.Ops[i], in.Ops[j], ii, idx)
				}
			}
		}
	}
	return nil
}

// MinII returns the smallest initiation interval for which any binding
// exists: the largest over operations of their fastest kind latency.
// (Resource sharing may require a larger II; this is the per-operation
// lower bound.)
func MinII(d *dfg.Graph, lib *model.Library) int {
	ii := 1
	for _, o := range d.Ops() {
		if l := model.MinLatency(o.Spec, lib); l > ii {
			ii = l
		}
	}
	return ii
}

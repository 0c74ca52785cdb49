// Package twostage implements the comparison baselines of the paper's
// §3 and introduction. Allocate is the two-stage scheduling/binding
// approach of Constantinides, Cheung and Luk, "Multiple-wordlength
// resource binding" (FPL 2000, reference [4]), as characterised by the
// paper — "an optimal branch-and-bound approach for resource binding and
// wordlength selection ... based on sharing only resources that can be
// grouped together without increasing the latency of the operation".
// Descend is the clique-partitioning binder modified to "select cliques
// by sorting nodes in descending order of wordlength" (Kum and Sung,
// SiPS'98, reference [14]).
//
// Both share stage 1, a wordlength-blind schedule: classical list
// scheduling with every operation at its native latency under per-class
// resource counts. It is core.Search — counts start at the utilisation
// lower bound and the blamed class grows until the schedule meets λ —
// over a ladder of one sched.ListEqn2 call on the compatibility graph of
// the operations' own kinds, fully refined, so that every latency upper
// bound is the native latency and Eqn. 2 counts each class per step.
//
// Stage 2 of Allocate finds the minimum-area partition of the scheduled
// operations into resource cliques by branch-and-bound, where a clique
// is feasible only if its members are pairwise time-disjoint and their
// joined signature's kind has exactly the same latency as every member's
// native latency — operations never slow down, which is precisely the
// flexibility these baselines lack compared with Algorithm DPAlloc.
// Descend binds the same way constructively instead: operations in
// descending order of their dedicated-resource area, each joining the
// first compatible clique or opening a new one. It shares the structural
// limitation — no cross-band sharing — plus the greed.
package twostage

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/wcg"
)

// ErrInfeasible is returned when λ is below the graph's λ_min.
var ErrInfeasible = errors.New("twostage: latency constraint infeasible")

// Stats reports how the baseline ran.
type Stats struct {
	Configs int  // resource configurations tried by stage 1
	Nodes   int  // branch-and-bound nodes visited by stage 2
	Capped  bool // true if the node cap was hit (result is best-found)
}

// nodeCap bounds the stage-2 search; when hit, the best incumbent is
// returned and Stats.Capped is set. Searches complete uncapped for the
// small-to-mid problem sizes; at the top of the paper's range (around 24
// operations) a few percent of graphs return the best-found partition
// instead of the proven optimum, which only slightly understates this
// baseline's area (i.e. is conservative for the paper's Fig. 3 penalty).
const nodeCap = 1 << 19

// Allocate runs the two-stage baseline. Note the returned area is
// λ-insensitive beyond schedule serialisation: stage 2 can never trade
// latency slack for sharing across wordlength-latency bands.
func Allocate(d *dfg.Graph, lib *model.Library, lambda int) (*datapath.Datapath, Stats, error) {
	return AllocateCtx(context.Background(), d, lib, lambda)
}

// AllocateCtx is Allocate with cancellation: the stage-1 configuration
// search and the stage-2 branch-and-bound poll ctx and return ctx.Err()
// promptly once it is done, discarding any incumbent found so far.
func AllocateCtx(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int) (*datapath.Datapath, Stats, error) {
	var stats Stats
	dp, err := allocate(ctx, d, lib, lambda, &stats, func(start []int) (*datapath.Datapath, error) {
		return stage2(ctx, d, lib, start, &stats)
	})
	return dp, stats, err
}

// Descend runs the descending-wordlength baseline: stage 1, then the
// descending-area first-fit partition. The schedule search and the
// binding loop poll ctx and return ctx.Err() promptly once it is done.
func Descend(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int) (*datapath.Datapath, error) {
	var stats Stats
	return allocate(ctx, d, lib, lambda, &stats, func(start []int) (*datapath.Datapath, error) {
		_, assign, err := greedyIncumbent(ctx, d, lib, start, d.MinLatencies(lib))
		if err != nil {
			return nil, err
		}
		return materialize(d, start, assign), nil
	})
}

// allocate schedules d with stage 1, binds the schedule with bind and
// verifies the result.
func allocate(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, stats *Stats, bind func(start []int) (*datapath.Datapath, error)) (*datapath.Datapath, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return &datapath.Datapath{}, nil
	}
	start, err := stage1(ctx, d, lib, lambda, stats)
	if err != nil {
		return nil, err
	}
	dp, err := bind(start)
	if err != nil {
		return nil, err
	}
	if err := dp.Verify(d, lib, lambda); err != nil {
		return nil, fmt.Errorf("twostage: internal error, illegal datapath: %w", err)
	}
	return dp, nil
}

// ---- Stage 1: wordlength-blind list scheduling ----

// stage1 returns the first schedule of core.Search's configurations
// whose makespan at native latencies meets λ (see the package comment).
// The ladder's error wraps core.ErrInfeasible too, which is what makes
// the search grow a class.
func stage1(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, stats *Stats) ([]int, error) {
	g, err := wcg.BuildWithKinds(d, lib, wcg.OwnKinds(d))
	if err != nil {
		return nil, err
	}
	g.FullyRefine()
	start, configs, err := core.Search(ctx, d, lib, lambda, func(_ context.Context, limits sched.Limits) ([]int, error) {
		r, err := sched.ListEqn2(g, limits)
		if err != nil {
			return nil, err
		}
		if r.Makespan > lambda {
			return nil, fmt.Errorf("%w: λ=%d below λ_min %d: %w", ErrInfeasible, lambda, r.Makespan, core.ErrInfeasible)
		}
		return r.Start, nil
	})
	stats.Configs += configs
	return start, err
}

// ---- Stage 2: optimal latency-preserving binding by branch & bound ----

// cliqueState is a partial clique during the search.
type cliqueState struct {
	class model.OpType
	lat   int             // shared native latency of all members
	sig   model.Signature // join of member signatures
	area  int64           // area of the kind on sig
	ops   []dfg.OpID
	ends  []iv // member intervals, kept sorted by start
}

type iv struct{ s, e int }

func stage2(ctx context.Context, d *dfg.Graph, lib *model.Library, start []int, stats *Stats) (*datapath.Datapath, error) {
	n := d.N()
	lat := d.MinLatencies(lib)
	ops := make([]dfg.OpID, n)
	for i := range ops {
		ops[i] = dfg.OpID(i)
	}
	// Branch on operations in schedule order.
	sort.Slice(ops, func(i, j int) bool {
		if start[ops[i]] != start[ops[j]] {
			return start[ops[i]] < start[ops[j]]
		}
		return ops[i] < ops[j]
	})

	s := &searcher{ctx: ctx, d: d, lib: lib, start: start, lat: lat, ops: ops, stats: stats}
	// Greedy incumbent: descending area first-fit (also the seed for the
	// B&B upper bound).
	var err error
	s.best, s.bestAssign, err = greedyIncumbent(ctx, d, lib, start, lat)
	if err != nil {
		return nil, err
	}
	s.assign = make([]int, n)
	s.dfs(0, 0, nil)
	if s.err != nil {
		return nil, s.err
	}
	return materialize(d, start, s.bestAssign), nil
}

// materialize builds the datapath for a clique assignment (op → clique
// id): each clique becomes one instance on the join of its member
// signatures.
func materialize(d *dfg.Graph, start []int, assign []int) *datapath.Datapath {
	n := d.N()
	cliques := make(map[int][]dfg.OpID)
	for o, c := range assign {
		cliques[c] = append(cliques[c], dfg.OpID(o))
	}
	keys := make([]int, 0, len(cliques))
	for k := range cliques {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	dp := &datapath.Datapath{Start: append([]int(nil), start...), InstOf: make([]int, n)}
	for _, k := range keys {
		members := cliques[k]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		sig := d.Op(members[0]).Spec.Sig
		class := d.Op(members[0]).Spec.Type.HardwareClass()
		for _, o := range members[1:] {
			sig = sig.Join(d.Op(o).Spec.Sig)
		}
		idx := len(dp.Instances)
		dp.Instances = append(dp.Instances, datapath.Instance{
			Kind: model.Kind{Class: class, Sig: sig},
			Ops:  members,
		})
		for _, o := range members {
			dp.InstOf[o] = idx
		}
	}
	return dp
}

type searcher struct {
	ctx   context.Context
	d     *dfg.Graph
	lib   *model.Library
	start []int
	lat   dfg.Latencies
	ops   []dfg.OpID
	stats *Stats

	assign     []int // clique id per op during DFS
	best       int64
	bestAssign []int
	err        error // ctx.Err() once cancellation is observed
}

// ctxPollMask throttles cancellation checks in the binding loop to one
// per 1024 nodes: frequent enough that a canceled search unwinds within
// microseconds, cheap enough not to show on the node rate.
const ctxPollMask = 1<<10 - 1

// dfs assigns ops[idx:] to cliques. cost is the area of the partial
// partition; cliques holds the open partial cliques.
func (s *searcher) dfs(idx int, cost int64, cliques []*cliqueState) {
	if s.err != nil {
		return
	}
	if cost >= s.best {
		return
	}
	s.stats.Nodes++
	if s.stats.Nodes&ctxPollMask == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return
		}
	}
	if s.stats.Nodes > nodeCap {
		s.stats.Capped = true
		return
	}
	if idx == len(s.ops) {
		s.best = cost
		s.bestAssign = append(s.bestAssign[:0], s.assign...)
		return
	}
	o := s.ops[idx]
	spec := s.d.Op(o).Spec
	class := spec.Type.HardwareClass()
	l := s.lat(o)
	myIv := iv{s.start[o], s.start[o] + l}

	// Try joining each existing clique, cheapest delta first.
	type cand struct {
		ci    int
		delta int64
		sig   model.Signature
	}
	var cands []cand
	for ci, c := range cliques {
		if c.class != class || c.lat != l {
			continue
		}
		if overlapsAny(c.ends, myIv) {
			continue
		}
		j := c.sig.Join(spec.Sig)
		k := model.Kind{Class: class, Sig: j}
		if s.lib.Latency(k) != l {
			continue // sharing would increase the members' latency
		}
		cands = append(cands, cand{ci, s.lib.Area(k) - c.area, j})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].delta != cands[j].delta {
			return cands[i].delta < cands[j].delta
		}
		return cands[i].ci < cands[j].ci
	})
	for _, c := range cands {
		cl := cliques[c.ci]
		oldSig, oldArea := cl.sig, cl.area
		cl.sig, cl.area = c.sig, oldArea+c.delta
		cl.ops = append(cl.ops, o)
		cl.ends = insertIv(cl.ends, myIv)
		s.assign[o] = c.ci
		s.dfs(idx+1, cost+c.delta, cliques)
		cl.sig, cl.area = oldSig, oldArea
		cl.ops = cl.ops[:len(cl.ops)-1]
		cl.ends = removeIv(cl.ends, myIv)
	}

	// Open a new clique.
	k := spec.MinKind()
	area := s.lib.Area(k)
	nc := &cliqueState{class: class, lat: l, sig: spec.Sig, area: area,
		ops: []dfg.OpID{o}, ends: []iv{myIv}}
	s.assign[o] = len(cliques)
	s.dfs(idx+1, cost+area, append(cliques, nc))
}

func overlapsAny(ivs []iv, x iv) bool {
	for _, v := range ivs {
		if x.s < v.e && v.s < x.e {
			return true
		}
	}
	return false
}

func insertIv(ivs []iv, x iv) []iv {
	ivs = append(ivs, x)
	for i := len(ivs) - 1; i > 0 && ivs[i].s < ivs[i-1].s; i-- {
		ivs[i], ivs[i-1] = ivs[i-1], ivs[i]
	}
	return ivs
}

func removeIv(ivs []iv, x iv) []iv {
	for i, v := range ivs {
		if v == x {
			return append(ivs[:i], ivs[i+1:]...)
		}
	}
	return ivs
}

// greedyIncumbent builds a quick feasible partition: operations in
// descending area order, first fit into a compatible clique. The
// binding loop polls ctx so even the constructive pass can be canceled
// on very large graphs.
func greedyIncumbent(ctx context.Context, d *dfg.Graph, lib *model.Library, start []int, lat dfg.Latencies) (int64, []int, error) {
	n := d.N()
	ops := make([]dfg.OpID, n)
	for i := range ops {
		ops[i] = dfg.OpID(i)
	}
	sort.Slice(ops, func(i, j int) bool {
		ai := lib.Area(d.Op(ops[i]).Spec.MinKind())
		aj := lib.Area(d.Op(ops[j]).Spec.MinKind())
		if ai != aj {
			return ai > aj
		}
		return ops[i] < ops[j]
	})
	assign := make([]int, n)
	var cliques []*cliqueState
	var total int64
	for i, o := range ops {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
		}
		spec := d.Op(o).Spec
		class := spec.Type.HardwareClass()
		l := lat(o)
		myIv := iv{start[o], start[o] + l}
		placed := false
		for ci, c := range cliques {
			if c.class != class || c.lat != l || overlapsAny(c.ends, myIv) {
				continue
			}
			j := c.sig.Join(spec.Sig)
			k := model.Kind{Class: class, Sig: j}
			if lib.Latency(k) != l {
				continue
			}
			delta := lib.Area(k) - c.area
			c.sig, c.area = j, c.area+delta
			c.ops = append(c.ops, o)
			c.ends = insertIv(c.ends, myIv)
			total += delta
			assign[o] = ci
			placed = true
			break
		}
		if placed {
			continue
		}
		k := spec.MinKind()
		cliques = append(cliques, &cliqueState{class: class, lat: l, sig: spec.Sig,
			area: lib.Area(k), ops: []dfg.OpID{o}, ends: []iv{myIv}})
		assign[o] = len(cliques) - 1
		total += lib.Area(k)
	}
	return total, assign, nil
}

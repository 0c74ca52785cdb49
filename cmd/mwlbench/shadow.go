package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"

	mwl "repro"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/refine"
	"repro/internal/sched"
	"repro/internal/wcg"
)

// The traced dpalloc loop is a benchmark-owned copy of
// core.AllocateCtx's loop with a span around every call into a layer.
// The benchmark may time layers only from outside the program, so the
// copy stands in for phase timing inside core. Every traced solve is
// checked JSON-identical to mwl.Solve's, and this module's tests check
// the copy on both sides of core.BatchMinOps, so a drift from the
// algorithm shows in a traced run or in this module's `go test`; the
// root module's tests do not reach it. The copy is to be deleted once
// core records its own phases.

// dpCounters accumulates the shadow loop's per-layer work counts.
type dpCounters struct {
	ops               int
	schedCalls        int
	schedDeadlocks    int // sched.List calls rejected under Eqn. 3
	bindCalls         int
	bindEvals         int
	bindMerges        int
	bindAlloc         uint64 // heap bytes allocated inside bind.SelectStats
	refineCalls       int
	victims           int
	configs           int
	infeasibleConfigs int
	rounds            int
	kinds             int
	alloc             [1]metrics.Sample
}

// heapAllocs reads the cumulative heap allocation into a reused sample,
// so that reading it around bind allocates nothing.
func (c *dpCounters) heapAllocs() uint64 {
	c.alloc[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(c.alloc[:])
	return c.alloc[0].Value.Uint64()
}

// shadowSolve solves a dpalloc problem through the shadow loop and
// returns the Solution mwl.Solve would (Elapsed left zero).
func shadowSolve(ctx context.Context, p mwl.Problem, tr *tracer, c *dpCounters) (mwl.Solution, error) {
	lib, err := p.Library.Build()
	if err != nil {
		return mwl.Solution{}, err
	}
	var limits sched.Limits
	if len(p.Options.Limits) > 0 {
		limits = make(sched.Limits, len(p.Options.Limits))
		for name, n := range p.Options.Limits {
			t, err := model.ParseOpType(name)
			if err != nil {
				return mwl.Solution{}, err
			}
			limits[t] = n
		}
	}
	root := tr.begin("dpalloc", -1)
	dp, st, err := shadowAllocate(ctx, p.Graph, lib, p.Lambda, limits, tr, root, c)
	tr.end(root)
	if err != nil {
		return mwl.Solution{}, err
	}
	c.ops++
	c.configs += st.Configs
	c.rounds += st.Iterations
	c.kinds += st.Kinds
	return envelope("dpalloc", lib, dp, mwl.SolveStats{
		Iterations:  st.Iterations,
		Refinements: st.Refinements,
		Configs:     st.Configs,
		Merges:      st.Merges,
		Evals:       st.Evals,
	}), nil
}

// envelope builds the Solution mwl.Solve returns around a datapath.
func envelope(method string, lib *mwl.Library, dp *datapath.Datapath, st mwl.SolveStats) mwl.Solution {
	sol := mwl.Solution{Method: method, Datapath: dp, Area: dp.Area(lib), Makespan: dp.Makespan(lib), Stats: st}
	if len(dp.Instances) > 0 {
		sol.AreaByKind = make(map[string]int64)
		for _, in := range dp.Instances {
			sol.AreaByKind[in.Kind.String()] += lib.Area(in.Kind)
		}
	}
	return sol
}

// shadowAllocate is core.AllocateCtx.
func shadowAllocate(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, fixed sched.Limits, tr *tracer, parent int, c *dpCounters) (*datapath.Datapath, core.Stats, error) {
	var stats core.Stats
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	if d.N() == 0 {
		return &datapath.Datapath{}, stats, nil
	}
	if fixed != nil {
		stats.Configs = 1
		dp, err := shadowFixed(ctx, d, lib, lambda, fixed, &stats, tr, parent, c)
		if errors.Is(err, core.ErrInfeasible) {
			c.infeasibleConfigs++
		}
		return dp, stats, err
	}
	count := make(map[model.OpType]int)
	busy := make(map[model.OpType]int)
	for _, o := range d.Ops() {
		y := o.Spec.Type.HardwareClass()
		count[y]++
		busy[y] += model.MinLatency(o.Spec, lib)
	}
	limits := make(sched.Limits, len(count))
	for y, b := range busy {
		n := 1
		if lambda > 0 {
			n = (b + lambda - 1) / lambda
		}
		limits[y] = min(max(n, 1), count[y])
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Configs++
		dp, err := shadowFixed(ctx, d, lib, lambda, limits, &stats, tr, parent, c)
		if err == nil {
			return dp, stats, nil
		}
		if !errors.Is(err, core.ErrInfeasible) {
			return nil, stats, err
		}
		c.infeasibleConfigs++
		y, need, ok := blame(err, d, limits, count, busy, lambda)
		if !ok {
			return nil, stats, fmt.Errorf("%w: λ=%d (λ_min may exceed it)", core.ErrInfeasible, lambda)
		}
		if d.N() < core.BatchMinOps || need < 1 {
			need = 1
		}
		limits[y] = min(limits[y]+need, count[y])
	}
}

// blame is core's choice of the hardware class to grow after an
// infeasible configuration.
func blame(err error, d *dfg.Graph, limits sched.Limits, count, busy map[model.OpType]int, lambda int) (model.OpType, int, bool) {
	var se *sched.InfeasibleError
	if errors.As(err, &se) {
		y := d.Op(se.Op).Spec.Type.HardwareClass()
		if limits[y] < count[y] {
			return y, se.Need, true
		}
	}
	bestY, found := model.Add, false
	var bestNum, bestDen int
	for y, n := range limits {
		if n >= count[y] {
			continue
		}
		num, den := busy[y], n*lambda
		if den <= 0 {
			den = 1
		}
		if !found || num*bestDen > bestNum*den ||
			(num*bestDen == bestNum*den && count[y] > count[bestY]) {
			bestY, bestNum, bestDen, found = y, num, den, true
		}
	}
	return bestY, 1, found
}

// shadowFixed is core's allocateFixed: one resource-bound configuration.
func shadowFixed(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, limits sched.Limits, stats *core.Stats, tr *tracer, parent int, c *dpCounters) (*datapath.Datapath, error) {
	s := tr.begin("wcg", parent)
	g, err := wcg.Build(d, lib)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	stats.Kinds = len(g.Kinds)
	pick := refine.Policy(refine.ChooseVictim)

	n := d.N()
	batchA, batchB := 1, 1
	if n >= core.BatchMinOps {
		batchA = min(16, n/128)
		batchB = n / 64
	}
	var all []dfg.OpID
	maxIters := g.NumHEdges() + 2
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.Iterations++
		s = tr.begin("sched", parent)
		r, schedErr := sched.List(g, limits)
		tr.end(s)
		c.schedCalls++
		if schedErr != nil {
			if !errors.Is(schedErr, sched.ErrResourceInfeasible) {
				return nil, schedErr
			}
			c.schedDeadlocks++
			s = tr.begin("refine", parent)
			if all == nil {
				all = make([]dfg.OpID, n)
				for i := range all {
					all[i] = dfg.OpID(i)
				}
			}
			ka := batchA
			if batchA > 1 {
				ka = min(64, batchA+iter/8)
			}
			j := 0
			for ; j < ka; j++ {
				o, ok := pick(g, nil, all)
				if !ok {
					break
				}
				stats.Refinements++
				stats.EdgesDeleted += g.DeleteMaxLatencyEdges(o)
			}
			tr.end(s)
			c.refineCalls++
			c.victims += j
			if j == 0 {
				return nil, fmt.Errorf("%w: %w", core.ErrInfeasible, schedErr)
			}
			continue
		}
		before := c.heapAllocs()
		s = tr.begin("bind", parent)
		b, bst, err := bind.SelectStats(g, r.Start, bind.Options{})
		tr.end(s)
		c.bindAlloc += c.heapAllocs() - before
		if err != nil {
			return nil, err
		}
		c.bindCalls++
		c.bindEvals += bst.Evals
		c.bindMerges += bst.Merges
		stats.Merges += bst.Merges
		stats.Evals += bst.Evals

		s = tr.begin("assemble", parent)
		dp := toDatapath(g, r.Start, b)
		m := dp.Makespan(lib)
		tr.end(s)
		if m <= lambda {
			s = tr.begin("datapath.verify", parent)
			err := dp.Verify(d, lib, lambda)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("core: internal error, produced illegal datapath: %w", err)
			}
			return dp, nil
		}
		k := min(batchB, max(1, (m-lambda)/4))
		edges := g.NumHEdges()
		s = tr.begin("refine", parent)
		refined := refine.StepBatch(g, r.Start, b, lambda, pick, k)
		tr.end(s)
		c.refineCalls++
		c.victims += refined
		if refined == 0 {
			return nil, fmt.Errorf("%w: λ=%d below achievable latency %d", core.ErrInfeasible, lambda, m)
		}
		stats.Refinements += refined
		stats.EdgesDeleted += edges - g.NumHEdges()
	}
	return nil, fmt.Errorf("core: refinement loop exceeded %d iterations", maxIters)
}

// toDatapath is core's conversion of a schedule plus binding into the
// result representation.
func toDatapath(g *wcg.Graph, start []int, b *bind.Binding) *datapath.Datapath {
	dp := &datapath.Datapath{
		Start:  append([]int(nil), start...),
		InstOf: append([]int(nil), b.CliqueOf...),
	}
	for _, k := range b.Cliques {
		dp.Instances = append(dp.Instances, datapath.Instance{
			Kind: g.Kinds[k.Kind],
			Ops:  append([]dfg.OpID(nil), k.Ops...),
		})
	}
	return dp
}

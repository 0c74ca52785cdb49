// Package core implements Algorithm DPAlloc, the paper's polynomial-time
// heuristic for combined scheduling, resource binding and wordlength
// selection of multiple-wordlength systems.
//
// The inner loop follows the paper's §2 pseudo-code. The resource set
// covering each operation is computed once (H edges of the wordlength
// compatibility graph); each iteration schedules the sequencing graph
// with per-operation latency *upper bounds* L_o — so that the binding
// derived afterwards can never violate the schedule — then performs
// combined binding and wordlength selection. If the resulting datapath
// violates the user latency constraint λ, wordlength information is
// refined (maximum-latency H edges of a victim on the bound critical path
// are deleted, lowering its L_o) and the loop repeats. Starting from the
// largest possible range of latencies gives the binder the greatest
// possible resource sharing; latencies are only tightened when forced by
// λ.
//
// The paper treats the per-class resource bound N_y as an input
// (Table 1). For area minimisation subject only to λ — the setting of the
// paper's evaluation — Allocate adds an outer search: each hardware class
// starts at its utilisation lower bound N_y = ⌈Σ_o ℓ_min(o) / λ⌉ and the
// class blocking feasibility is incremented until the inner loop
// succeeds. The first feasible configuration has the fewest resources
// and hence maximal sharing; the binder's cost-effectiveness rule
// declines merges that would not pay for themselves. Search exposes
// that search over any ladder: the two-stage baselines and the pipelined
// allocator run on it too, so blame is the one rule for which class
// grows.
package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync"

	"repro/internal/bind"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/refine"
	"repro/internal/sched"
	"repro/internal/wcg"
)

// ErrInfeasible is returned when no datapath meets the latency constraint
// even with every operation at its minimum latency (λ below λ_min, or
// resource limits too tight).
var ErrInfeasible = errors.New("core: latency constraint infeasible")

// Options tunes the heuristic. The zero value is the paper's algorithm
// with automatic resource bounds.
type Options struct {
	// Limits fixes the number of resources per hardware class (the
	// paper's N_y input). Nil enables the automatic minimal-resource
	// search described in the package comment.
	Limits sched.Limits
	// DisableGrowth, DisableShrink pass through to bind.SelectStats
	// (ablation).
	DisableGrowth bool
	DisableShrink bool
	// DisableClosure extracts only the operations' own kinds, without
	// join closure (ablation).
	DisableClosure bool
	// Victim overrides the refinement victim policy (ablation); nil uses
	// the paper's smallest-proportion metric.
	Victim refine.Policy
	// RefineBatch controls how many victims each refinement round may
	// process before rescheduling. 1 is the paper's exact
	// one-victim-per-reschedule step. 0 (the default) chooses
	// automatically by problem size: small graphs (< BatchMinOps
	// operations — every graph in the paper's range) always use 1;
	// large graphs refine up to n/64 victims per λ-violation round
	// (throttled by how far the makespan still is from λ, so the final
	// approach reverts to single steps) and batch Eqn. 3 deadlock
	// rounds ever more aggressively as a ladder deepens. Values > 1
	// impose a fixed per-round cap regardless of size.
	RefineBatch int
}

// BatchMinOps is the problem size below which the automatic refinement
// batching (Options.RefineBatch == 0) stays at the paper-exact single
// step. Small problems keep bit-identical results; above the threshold
// the allocator trades per-refinement rescheduling for scalability.
const BatchMinOps = 200

// Stats reports how the heuristic ran.
type Stats struct {
	Iterations   int // scheduling/binding rounds across all configurations
	Refinements  int // H-edge deletion steps
	EdgesDeleted int // total H edges removed
	Kinds        int // size of the extracted resource set R
	Configs      int // resource-bound configurations tried by the auto search
	Merges       int // binder clique-growth swallows across all rounds
	Evals        int // binder candidate-clique evaluations across all rounds
}

// Allocate runs Algorithm DPAlloc on the sequencing graph with latency
// constraint lambda and returns a verified datapath.
func Allocate(d *dfg.Graph, lib *model.Library, lambda int, opt Options) (*datapath.Datapath, Stats, error) {
	return AllocateCtx(context.Background(), d, lib, lambda, opt)
}

// AllocateCtx is Allocate with cancellation: the schedule/bind/refine
// loop and the outer resource-bound search check ctx between rounds and
// return ctx.Err() promptly once it is done.
//
// The automatic search on a graph of at least BatchMinOps operations
// runs the ladders of up to GOMAXPROCS resource-bound configurations at
// once, speculatively; the datapath and Stats are identical to trying
// one configuration at a time.
func AllocateCtx(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, opt Options) (*datapath.Datapath, Stats, error) {
	var stats Stats
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	if d.N() == 0 {
		return &datapath.Datapath{}, stats, nil
	}
	if opt.Limits != nil {
		stats.Configs = 1
		dp, err := allocateFixed(ctx, d, lib, lambda, opt, opt.Limits, &stats)
		return dp, stats, err
	}
	s := newDPSearch(d, lib, lambda, opt)
	if workers := runtime.GOMAXPROCS(0); d.N() >= BatchMinOps && workers > 1 {
		return s.speculative(ctx, workers, nil)
	}
	return s.sequential(ctx)
}

// Ladder runs the ladder of one resource-bound configuration. An error
// wrapping ErrInfeasible tells Search that the configuration failed and
// which class to blame: a *sched.InfeasibleError in its chain names the
// operation the scheduler could not place.
type Ladder[T any] func(ctx context.Context, limits sched.Limits) (T, error)

// Search is the automatic minimal-resource search of the package
// comment, for any method whose configurations are tried by a ladder:
// every hardware class starts at its utilisation lower bound
// ⌈Σ_o ℓ_min(o) / period⌉, and after each configuration whose ladder
// fails with ErrInfeasible the class blame picks grows, until a ladder
// succeeds. period is the number of busy cycles one resource offers: λ
// for a single iteration. It returns the first successful ladder's
// result and the number of configurations tried; when no class can
// grow, the last ladder's error. ctx is polled before each ladder.
func Search[T any](ctx context.Context, d *dfg.Graph, lib *model.Library, period int, ladder Ladder[T]) (T, int, error) {
	return run(ctx, newSearch(d, lib, period), ladder)
}

// search holds what the resource-bound search of one solve derives from
// its graph.
type search struct {
	d      *dfg.Graph
	period int
	// count and busy are per hardware class: the number of operations
	// and Σ ℓ_min, the inputs of blame.
	count, busy map[model.OpType]int
	// first is the first configuration: every class at its utilisation
	// lower bound.
	first sched.Limits
}

func newSearch(d *dfg.Graph, lib *model.Library, period int) *search {
	s := &search{
		d: d, period: period,
		count: make(map[model.OpType]int),
		busy:  make(map[model.OpType]int),
	}
	for _, o := range d.Ops() {
		y := o.Spec.Type.HardwareClass()
		s.count[y]++
		s.busy[y] += model.MinLatency(o.Spec, lib)
	}
	s.first = make(sched.Limits, len(s.count))
	for y, b := range s.busy {
		n := 1
		if period > 0 {
			n = (b + period - 1) / period
		}
		s.first[y] = min(max(n, 1), s.count[y])
	}
	return s
}

// next returns the configuration to try after limits failed with err,
// an ErrInfeasible, or false when no class can grow. limits is not
// modified.
func (s *search) next(err error, limits sched.Limits) (sched.Limits, bool) {
	y, need, ok := blame(err, s.d, limits, s.count, s.busy, s.period)
	if !ok {
		return nil, false
	}
	// Small graphs probe one unit at a time — the paper-exact first-
	// feasible search. Large graphs jump by the scheduler's reported
	// deficit, which collapses runs of configurations that Eqn. 3
	// rejects by more than one whole resource.
	if s.d.N() < BatchMinOps || need < 1 {
		need = 1
	}
	nx := maps.Clone(limits)
	nx[y] = min(limits[y]+need, s.count[y])
	return nx, true
}

// run tries one configuration at a time, growing the blamed class after
// each failure until one succeeds; see Search.
func run[T any](ctx context.Context, s *search, ladder Ladder[T]) (T, int, error) {
	var zero T
	limits := s.first
	for configs := 1; ; configs++ {
		if err := ctx.Err(); err != nil {
			return zero, configs - 1, err
		}
		r, err := ladder(ctx, limits)
		if err == nil {
			return r, configs, nil
		}
		if !errors.Is(err, ErrInfeasible) {
			return zero, configs, err
		}
		var ok bool
		if limits, ok = s.next(err, limits); !ok {
			return zero, configs, err
		}
	}
}

// dpSearch is the automatic search of one DPAlloc solve.
type dpSearch struct {
	*search
	lib    *model.Library
	lambda int
	opt    Options
}

func newDPSearch(d *dfg.Graph, lib *model.Library, lambda int, opt Options) *dpSearch {
	return &dpSearch{search: newSearch(d, lib, lambda), lib: lib, lambda: lambda, opt: opt}
}

// exhausted is the error of a search that ran out of classes to grow.
func (s *dpSearch) exhausted() error {
	return fmt.Errorf("%w: λ=%d (λ_min may exceed it)", ErrInfeasible, s.lambda)
}

// sequential is Search over DPAlloc's ladder. Each ladder refines its
// own clone of one compatibility graph.
func (s *dpSearch) sequential(ctx context.Context) (*datapath.Datapath, Stats, error) {
	var stats Stats
	base, err := s.base()
	if err != nil {
		return nil, stats, err
	}
	dp, configs, err := run(ctx, s.search, func(ctx context.Context, limits sched.Limits) (*datapath.Datapath, error) {
		return runLadder(ctx, base.Clone(), s.lambda, s.opt, limits, &stats)
	})
	stats.Configs = configs
	if errors.Is(err, ErrInfeasible) {
		// run ends on an infeasible ladder only when no class can grow.
		err = s.exhausted()
	}
	return dp, stats, err
}

// base builds the compatibility graph every ladder of the search starts
// from, with its topological order memoized so that clones share it.
func (s *dpSearch) base() (*wcg.Graph, error) {
	g, err := buildWCG(s.d, s.lib, s.opt)
	if err != nil {
		return nil, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	return g, nil
}

// speculative is sequential with up to workers configurations' ladders
// running at once, each on its own clone of one compatibility graph.
//
// A ladder can only fail at the refinement fixpoint G_min, where no
// operation is Reducible (given a victim policy that finds a reducible
// candidate whenever one exists, as both refine policies do), and G_min
// is unique (wcg.FullyRefine). So the
// error a failing ladder reports is the one scheduling G_min under its
// limits gives — or, when G_min schedules but binds above λ, a plain
// ErrInfeasible — and the configuration after it is known after one
// schedule and bind of G_min, long before the ladder itself ends. The
// search launches ladders along that predicted chain and commits their
// results strictly in order: on a failure it derives the true next
// configuration with blame exactly as sequential does, and if the
// ladder already running next is not for it, cancels every ladder in
// flight and restarts the chain there. A misprediction therefore costs
// time, never a different answer: Stats sums the committed ladders
// only, so the answer, its Stats and the order of configurations tried
// are those of sequential for every worker count.
//
// skew, when non-nil, rewrites every predicted configuration; tests use
// it to force mispredictions.
func (s *dpSearch) speculative(ctx context.Context, workers int, skew func(sched.Limits)) (*datapath.Datapath, Stats, error) {
	var stats Stats
	base, err := s.base()
	if err != nil {
		return nil, stats, err
	}
	pred := predictor{s: s, g: base.Clone()}
	pred.g.FullyRefine()

	type result struct {
		dp    *datapath.Datapath
		stats Stats
		err   error
	}
	type ladder struct {
		limits sched.Limits
		cancel context.CancelFunc
		done   chan result // buffered: the ladder never blocks on send
	}
	var wg sync.WaitGroup
	var inflight []*ladder
	drop := func() {
		for _, l := range inflight {
			l.cancel()
		}
		wg.Wait()
		inflight = inflight[:0]
	}
	defer drop()

	// spec is the next configuration to launch; more is false once the
	// predicted chain has ended at a predicted success.
	spec, more := s.first, true
	for {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		for len(inflight) < workers && more {
			lctx, cancel := context.WithCancel(ctx)
			l := &ladder{limits: spec, cancel: cancel, done: make(chan result, 1)}
			inflight = append(inflight, l)
			wg.Add(1)
			//mwlvet:allow boundedspawn -- at most GOMAXPROCS ladders in flight
			go func() {
				defer wg.Done()
				var st Stats
				dp, err := runLadder(lctx, base.Clone(), s.lambda, s.opt, l.limits, &st)
				l.done <- result{dp, st, err}
			}()
			spec, more = pred.next(spec)
			if more && skew != nil {
				skew(spec)
			}
		}

		l := inflight[0]
		r := <-l.done
		l.cancel()
		inflight = inflight[1:]
		stats.Configs++
		stats.Iterations += r.stats.Iterations
		stats.Refinements += r.stats.Refinements
		stats.EdgesDeleted += r.stats.EdgesDeleted
		stats.Merges += r.stats.Merges
		stats.Evals += r.stats.Evals
		stats.Kinds = r.stats.Kinds
		if r.err == nil {
			return r.dp, stats, nil
		}
		if !errors.Is(r.err, ErrInfeasible) {
			return nil, stats, r.err
		}
		want, ok := s.next(r.err, l.limits)
		if !ok {
			return nil, stats, s.exhausted()
		}
		if len(inflight) == 0 || !maps.Equal(inflight[0].limits, want) {
			// Misprediction, or the predicted chain ended early.
			drop()
			spec, more = want, true
		}
	}
}

// predictor forecasts the automatic search's chain of configurations on
// the refinement fixpoint G_min.
type predictor struct {
	s     *dpSearch
	g     *wcg.Graph // G_min, owned by the predictor
	sched sched.Scratch
	bind  bind.Scratch
}

// next returns the configuration the search tries after limits, on the
// premise that limits fails, and false when limits is predicted to
// succeed or the search would end there.
func (p *predictor) next(limits sched.Limits) (sched.Limits, bool) {
	r, err := p.sched.List(p.g, limits)
	switch {
	case err == nil:
		b, _, err := p.bind.SelectStats(p.g, r.Start, bindOptions(p.s.opt))
		if err != nil || makespan(p.g, r.Start, b) <= p.s.lambda {
			return nil, false
		}
		return p.s.next(ErrInfeasible, limits)
	case errors.Is(err, sched.ErrResourceInfeasible):
		return p.s.next(err, limits)
	}
	return nil, false
}

// blame picks the hardware class whose resource bound should grow after
// an infeasible configuration, for every method that runs on Search: the
// class of the operation the scheduler could not place if available,
// otherwise the class with the highest utilisation pressure
// Σℓ_min/(N_y·period), then the most operations. Classes already at one
// resource per operation cannot grow. The second result is the
// scheduler's reported resource deficit for the blamed class (1 when
// unknown). Returns false when no class can grow.
func blame(err error, d *dfg.Graph, limits sched.Limits, count, busy map[model.OpType]int, period int) (model.OpType, int, bool) {
	var se *sched.InfeasibleError
	if errors.As(err, &se) {
		y := d.Op(se.Op).Spec.Type.HardwareClass()
		if limits[y] < count[y] {
			return y, se.Need, true
		}
	}
	bestY, found := model.Add, false
	var bestNum, bestDen int // pressure = busy/(N·period) compared exactly
	for y, n := range limits {
		if n >= count[y] {
			continue
		}
		num, den := busy[y], n*period
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

// buildWCG constructs the wordlength compatibility graph the options ask
// for: full join closure, or the operations' own kinds only (ablation).
func buildWCG(d *dfg.Graph, lib *model.Library, opt Options) (*wcg.Graph, error) {
	if opt.DisableClosure {
		return wcg.BuildWithKinds(d, lib, wcg.OwnKinds(d))
	}
	return wcg.Build(d, lib)
}

// allocateFixed is the paper's Algorithm DPAlloc for a fixed N_y.
func allocateFixed(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, opt Options, limits sched.Limits, stats *Stats) (*datapath.Datapath, error) {
	g, err := buildWCG(d, lib, opt)
	if err != nil {
		return nil, err
	}
	return runLadder(ctx, g, lambda, opt, limits, stats)
}

func bindOptions(opt Options) bind.Options {
	return bind.Options{DisableGrowth: opt.DisableGrowth, DisableShrink: opt.DisableShrink}
}

// runLadder runs the schedule/bind/refine ladder of one configuration on
// g, which it refines in place, adding its effort to stats.
func runLadder(ctx context.Context, g *wcg.Graph, lambda int, opt Options, limits sched.Limits, stats *Stats) (*datapath.Datapath, error) {
	d, lib := g.D, g.Lib
	stats.Kinds = len(g.Kinds)

	pick := opt.Victim
	if pick == nil {
		pick = refine.ChooseVictim
	}
	bindOpt := bindOptions(opt)
	// Per-round working memory, reused across the ladder's rounds.
	var (
		ss sched.Scratch
		bs bind.Scratch
		rs refine.Scratch
	)

	// Refinement batch caps (see Options.RefineBatch). batchA is the
	// fixed batch for Eqn. 3 deadlock rounds, which expose no distance
	// signal; the λ-violation rounds scale their batch by the remaining
	// makespan excess up to batchB.
	n := d.N()
	batchA, batchB := 1, 1
	switch {
	case opt.RefineBatch > 1:
		batchA, batchB = opt.RefineBatch, opt.RefineBatch
	case opt.RefineBatch == 0 && n >= BatchMinOps:
		batchA = min(16, n/128)
		batchB = n / 64
	}

	// Each refinement deletes at least one H edge, so the loop is bounded
	// by the initial edge count; the +2 covers the final feasible round.
	maxIters := g.NumHEdges() + 2
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stats.Iterations++
		// Try stops a deadlocking schedule at the first placement that
		// proves it; the deadlock's detail is needed only when the
		// ladder fails, and then List supplies it below.
		r, schedErr := ss.Try(g, limits)
		if schedErr != nil {
			if !errors.Is(schedErr, sched.ErrResourceInfeasible) {
				return nil, schedErr
			}
			// No schedule exists under Eqn. 3 with the current
			// wordlength information: refine without binding guidance.
			// Deadlock rounds escalate with ladder depth: a
			// configuration still deadlocked after many rounds is
			// grinding towards full refinement, and precision there no
			// longer buys area — it only multiplies reschedules.
			ka := batchA
			if batchA > 1 {
				ka = min(64, batchA+iter/8)
			}
			edges := g.NumHEdges()
			refined := rs.StepAll(g, opt.Victim, ka)
			if refined == 0 {
				// blame reads the InfeasibleError of the full schedule.
				if _, schedErr = ss.List(g, limits); schedErr == nil {
					return nil, errors.New("core: internal error, Try and List disagree")
				}
				return nil, fmt.Errorf("%w: %w", ErrInfeasible, schedErr)
			}
			stats.Refinements += refined
			stats.EdgesDeleted += edges - g.NumHEdges()
			continue
		}
		b, bst, err := bs.SelectStats(g, r.Start, bindOpt)
		if err != nil {
			return nil, err
		}
		stats.Merges += bst.Merges
		stats.Evals += bst.Evals
		m := makespan(g, r.Start, b)
		if m <= lambda {
			dp := toDatapath(g, r.Start, b)
			if err := dp.Verify(d, lib, lambda); err != nil {
				return nil, fmt.Errorf("core: internal error, produced illegal datapath: %w", err)
			}
			return dp, nil
		}
		// The batch shrinks with the remaining excess so the final
		// approach to λ reverts to the paper's single step.
		k := min(batchB, max(1, (m-lambda)/4))
		edges := g.NumHEdges()
		refined := rs.StepBatch(g, r.Start, b, lambda, pick, k)
		if refined == 0 {
			return nil, fmt.Errorf("%w: λ=%d below achievable latency %d", ErrInfeasible, lambda, m)
		}
		stats.Refinements += refined
		stats.EdgesDeleted += edges - g.NumHEdges()
	}
	return nil, fmt.Errorf("core: refinement loop exceeded %d iterations", maxIters)
}

// MinLambda returns λ_min for the graph: the smallest latency constraint
// any allocator can meet (critical path at minimum latencies).
func MinLambda(d *dfg.Graph, lib *model.Library) (int, error) {
	return d.MinMakespan(lib)
}

// makespan is the makespan of toDatapath(g, start, b) without building
// the datapath.
func makespan(g *wcg.Graph, start []int, b *bind.Binding) int {
	m := 0
	for o, t := range start {
		m = max(m, t+b.BoundLatency(g, dfg.OpID(o)))
	}
	return m
}

// toDatapath converts a schedule plus binding into the common result
// representation.
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

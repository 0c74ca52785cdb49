package mwl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/twostage"
)

// LibrarySpec is the serializable description of a cost model used on
// the wire; the zero value denotes the paper's default library.
type LibrarySpec = model.LibrarySpec

// DefaultMethod is the method solved when a Problem leaves Method empty:
// the paper's own heuristic.
const DefaultMethod = "dpalloc"

// Problem is a complete, serializable description of one allocation
// run: the sequencing graph, the cost model, the latency constraint λ,
// an optional initiation interval for the pipelined method, the method
// name, and per-method options. Problems marshal to the v1 JSON wire
// schema, so they are storable, diffable and servable (see cmd/mwld).
type Problem struct {
	// Method names the registered solver; "" means DefaultMethod.
	Method string `json:"method,omitempty"`
	// Graph is the multiple-wordlength sequencing graph P(O, S).
	Graph *Graph `json:"graph"`
	// Lambda is the overall latency constraint in cycles.
	Lambda int `json:"lambda"`
	// II is the initiation interval; it is required by (and only
	// accepted by) the "pipelined" method.
	II int `json:"ii,omitempty"`
	// Library describes the cost model; the zero value is the paper's
	// default library.
	Library LibrarySpec `json:"library,omitzero"`
	// Lib, when non-nil, overrides Library with an in-memory cost model
	// that need not be expressible as a LibrarySpec. Problems using it
	// cannot be hashed or serialized, so the Service solves them
	// without memoization.
	Lib *Library `json:"-"`
	// Options carries the per-method tuning knobs.
	Options SolveOptions `json:"options,omitzero"`
}

// SolveOptions are the per-method tuning knobs of a Problem. Methods
// ignore knobs that do not apply to them.
type SolveOptions struct {
	// TimeLimit caps the "ilp" branch-and-bound wall clock in
	// nanoseconds on the wire. Zero applies DefaultILPTimeLimit;
	// negative disables the cap.
	TimeLimit time.Duration `json:"time_limit_ns,omitempty"`
	// NodeLimit caps the "ilp" and "optimal" search nodes; 0 = no cap.
	NodeLimit int `json:"node_limit,omitempty"`
	// Limits fixes the per-class resource bounds N_y for "dpalloc",
	// keyed by hardware class name ("add", "mul"). Empty enables the
	// automatic minimal-resource search.
	Limits map[string]int `json:"limits,omitempty"`
	// Incumbent primes "ilp" and "optimal" with a known feasible
	// datapath, exactly like handing lp_solve a known solution.
	Incumbent *Datapath `json:"incumbent,omitempty"`
	// Seed seeds the "anneal" method's move RNG. A fixed seed makes the
	// annealer bit-reproducible; different seeds explore differently.
	Seed int64 `json:"seed,omitempty"`
	// AnnealMoves caps the "anneal" proposal budget; 0 applies the
	// annealer's default (20000).
	AnnealMoves int `json:"anneal_moves,omitempty"`
	// AnnealInitTemp sets the "anneal" starting temperature in area
	// units; 0 derives it from the initial area.
	AnnealInitTemp float64 `json:"anneal_init_temp,omitempty"`
	// AnnealCooling sets the "anneal" geometric cooling factor per
	// epoch, in (0, 1); 0 applies the default (0.95).
	AnnealCooling float64 `json:"anneal_cooling,omitempty"`
	// Portfolio names the registered methods the "portfolio" solver
	// races; empty races the default set (see DefaultPortfolio).
	Portfolio []string `json:"portfolio,omitempty"`
}

// IsZero reports whether every knob is at its default, so that the
// options encode as an empty object. An empty Limits map or Portfolio
// list counts as absent, exactly as their omitempty tags already treat
// them. Problem's omitzero tag consults this method, so such options
// drop out of the wire form and out of Problem.Hash. Without it
// `"options":{"limits":{}}` would encode as `"options":{}`, which
// decodes to zero options: one problem with two hashes, and a relayed
// problem refused by its owner for carrying a key that is not its
// canonical hash.
func (o SolveOptions) IsZero() bool {
	return o.TimeLimit == 0 && o.NodeLimit == 0 && len(o.Limits) == 0 &&
		o.Incumbent == nil && o.Seed == 0 && o.AnnealMoves == 0 &&
		o.AnnealInitTemp == 0 && o.AnnealCooling == 0 && len(o.Portfolio) == 0
}

// Solution is the uniform result of a Solve: the datapath plus its
// headline numbers, an area breakdown, method statistics and timing.
type Solution struct {
	// Method is the registry name of the solver that produced this.
	Method string `json:"method"`
	// Datapath is the scheduled, bound, wordlength-selected solution.
	Datapath *Datapath `json:"datapath"`
	// Area is the total functional-unit area (the paper's objective).
	Area int64 `json:"area"`
	// Makespan is the achieved overall latency in cycles (≤ λ).
	Makespan int `json:"makespan"`
	// AreaByKind breaks Area down by resource kind, e.g. "mul 16x12".
	AreaByKind map[string]int64 `json:"area_by_kind,omitempty"`
	// Elapsed is the solve wall-clock time (nanoseconds on the wire).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Cached reports that a Service served this from its memo.
	Cached bool `json:"cached,omitempty"`
	// Stats reports how the method ran.
	Stats SolveStats `json:"stats,omitzero"`
}

// SolveStats is the union of the per-method effort counters; methods
// leave fields that do not apply to them zero.
type SolveStats struct {
	Iterations  int   `json:"iterations,omitempty"`  // schedule/bind/refine rounds (dpalloc, pipelined)
	Refinements int   `json:"refinements,omitempty"` // H-edge deletion steps (dpalloc, pipelined)
	Configs     int   `json:"configs,omitempty"`     // resource-bound configurations tried (dpalloc)
	Nodes       int64 `json:"nodes,omitempty"`       // search / branch-and-bound nodes (optimal, ilp)
	Vars        int   `json:"vars,omitempty"`        // ILP model columns
	Rows        int   `json:"rows,omitempty"`        // ILP model rows
	TimedOut    bool  `json:"timed_out,omitempty"`   // ILP budget hit: best found, not proven optimal
	Moves       int   `json:"moves,omitempty"`       // annealing proposals evaluated (anneal)
	Accepted    int   `json:"accepted,omitempty"`    // annealing proposals accepted (anneal)
	Merges      int   `json:"merges,omitempty"`      // resource-instance fusions: binder clique swallows (dpalloc), accepted merge moves (anneal)
	Evals       int   `json:"evals,omitempty"`       // inner cost evaluations: binder max-clique extractions (dpalloc), list schedules run (anneal)
	// Winner names the registered method whose solution a "portfolio"
	// race returned.
	Winner string `json:"winner,omitempty"`
}

// ErrInvalidProblem is wrapped by solve errors caused by a malformed
// Problem — no graph, a bad library spec or resource-limit map, an
// initiation interval on a method that does not accept one, or a graph
// too large for the exhaustive method. These are the caller's fault, as
// opposed to infeasible constraints or solver-internal failures.
var ErrInvalidProblem = errors.New("mwl: invalid problem")

// ErrInfeasible is the method-independent infeasibility sentinel:
// errors wrapping it are recognised by IsInfeasible. The built-in
// methods report their own internal sentinels (also recognised); this
// one exists for layers that learn of infeasibility without running a
// solver — the mwld shard forwarder wraps it when relaying a peer's
// infeasible verdict so the classification survives the wire.
var ErrInfeasible = errors.New("mwl: problem infeasible")

// IsInfeasible reports whether a solve failed because no datapath can
// meet the problem's constraints (λ below λ_min, resource limits too
// tight, or no II-feasible kind), as opposed to a malformed problem or a
// cancellation. It recognises ErrInfeasible and the infeasibility
// sentinels of every built-in method.
func IsInfeasible(err error) bool {
	return errors.Is(err, ErrInfeasible) ||
		errors.Is(err, anneal.ErrInfeasible) ||
		errors.Is(err, core.ErrInfeasible) ||
		errors.Is(err, exact.ErrInfeasible) ||
		errors.Is(err, ilp.ErrInfeasible) ||
		errors.Is(err, pipeline.ErrInfeasible) ||
		errors.Is(err, twostage.ErrInfeasible)
}

// Solve resolves the problem's method in the registry and solves it.
// An empty Problem.Method solves with DefaultMethod.
func Solve(ctx context.Context, p Problem) (Solution, error) {
	return Get(p.method()).Solve(ctx, p)
}

// Size reports the problem's graph dimensions: operation and data-edge
// counts (0, 0 when no graph is attached). Admission layers use it to
// bound work before solving — solver effort grows superlinearly in
// nodes, so a node cap is the meaningful guard, not body bytes.
func (p Problem) Size() (nodes, edges int) {
	if p.Graph == nil {
		return 0, 0
	}
	return p.Graph.N(), p.Graph.NumEdges()
}

func (p Problem) method() string {
	if p.Method == "" {
		return DefaultMethod
	}
	return p.Method
}

// library materialises the problem's cost model.
func (p Problem) library() (*Library, error) {
	if p.Lib != nil {
		return p.Lib, nil
	}
	lib, err := p.Library.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	return lib, nil
}

// prepare validates the method-independent parts of the problem.
func (p Problem) prepare(ctx context.Context, acceptsII bool) (*Library, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Graph == nil {
		return nil, fmt.Errorf("%w: no graph", ErrInvalidProblem)
	}
	if !acceptsII && p.II != 0 {
		return nil, fmt.Errorf("%w: method %q does not accept an initiation interval (ii=%d)", ErrInvalidProblem, p.method(), p.II)
	}
	return p.library()
}

// incumbent validates an optional client-supplied warm-start datapath.
// Solvers prune against the incumbent's area and may return the
// incumbent itself, so an illegal one must be rejected up front — it
// would otherwise be served as a valid Solution, or make a feasible
// problem report "no solution found".
func (p Problem) incumbent(lib *Library) (*Datapath, error) {
	inc := p.Options.Incumbent
	if inc == nil {
		return nil, nil
	}
	if err := inc.Verify(p.Graph, lib, p.Lambda); err != nil {
		return nil, fmt.Errorf("%w: incumbent datapath: %w", ErrInvalidProblem, err)
	}
	return inc, nil
}

// schedLimits converts the wire-level class→count map into the
// scheduler's representation.
func (o SolveOptions) schedLimits() (sched.Limits, error) {
	if len(o.Limits) == 0 {
		return nil, nil
	}
	out := make(sched.Limits, len(o.Limits))
	for name, n := range o.Limits {
		t, err := model.ParseOpType(name)
		if err != nil {
			return nil, fmt.Errorf("%w: bad resource limit class: %w", ErrInvalidProblem, err)
		}
		if t != t.HardwareClass() {
			return nil, fmt.Errorf("%w: resource limit class %q is not a hardware class (use %q)", ErrInvalidProblem, name, t.HardwareClass())
		}
		if n < 1 {
			return nil, fmt.Errorf("%w: resource limit %s=%d must be ≥ 1", ErrInvalidProblem, name, n)
		}
		out[t] = n
	}
	return out, nil
}

// newSolution assembles the uniform result envelope around a datapath.
func newSolution(method string, lib *Library, dp *Datapath, elapsed time.Duration, stats SolveStats) Solution {
	sol := Solution{
		Method:   method,
		Datapath: dp,
		Area:     dp.Area(lib),
		Makespan: dp.Makespan(lib),
		Elapsed:  elapsed,
		Stats:    stats,
	}
	if len(dp.Instances) > 0 {
		sol.AreaByKind = make(map[string]int64)
		for _, in := range dp.Instances {
			sol.AreaByKind[in.Kind.String()] += lib.Area(in.Kind)
		}
	}
	return sol
}

func init() {
	mustRegister("dpalloc", "Algorithm DPAlloc: the paper's combined scheduling, binding and wordlength-selection heuristic",
		SolverFunc(solveDPAlloc))
	mustRegister("twostage", "two-stage FPL 2000 baseline: wordlength-blind scheduling, then optimal latency-preserving binding",
		SolverFunc(solveTwoStage))
	mustRegister("descend", "descending-wordlength clique-partitioning baseline",
		SolverFunc(solveDescend))
	mustRegister("optimal", fmt.Sprintf("exhaustive branch-and-bound optimum (≤ %d operations)", exact.MaxOps),
		SolverFunc(solveOptimal))
	mustRegister("ilp", "time-indexed ILP formulation solved with the built-in MILP solver",
		SolverFunc(solveILPMethod))
	mustRegister("pipelined", "DPAlloc under an initiation interval: resource sharing modulo II",
		SolverFunc(solvePipelined))
}

func solveDPAlloc(ctx context.Context, p Problem) (Solution, error) {
	lib, err := p.prepare(ctx, false)
	if err != nil {
		return Solution{}, err
	}
	limits, err := p.Options.schedLimits()
	if err != nil {
		return Solution{}, err
	}
	t0 := time.Now()
	dp, st, err := core.AllocateCtx(ctx, p.Graph, lib, p.Lambda, core.Options{Limits: limits})
	if err != nil {
		return Solution{}, err
	}
	return newSolution("dpalloc", lib, dp, time.Since(t0), SolveStats{
		Iterations:  st.Iterations,
		Refinements: st.Refinements,
		Configs:     st.Configs,
		Merges:      st.Merges,
		Evals:       st.Evals,
	}), nil
}

func solveTwoStage(ctx context.Context, p Problem) (Solution, error) {
	lib, err := p.prepare(ctx, false)
	if err != nil {
		return Solution{}, err
	}
	t0 := time.Now()
	dp, st, err := twostage.AllocateCtx(ctx, p.Graph, lib, p.Lambda)
	if err != nil {
		return Solution{}, err
	}
	return newSolution("twostage", lib, dp, time.Since(t0), SolveStats{
		Configs:  st.Configs,
		Nodes:    int64(st.Nodes),
		TimedOut: st.Capped,
	}), nil
}

func solveDescend(ctx context.Context, p Problem) (Solution, error) {
	lib, err := p.prepare(ctx, false)
	if err != nil {
		return Solution{}, err
	}
	t0 := time.Now()
	dp, err := twostage.Descend(ctx, p.Graph, lib, p.Lambda)
	if err != nil {
		return Solution{}, err
	}
	return newSolution("descend", lib, dp, time.Since(t0), SolveStats{}), nil
}

func solveOptimal(ctx context.Context, p Problem) (Solution, error) {
	lib, err := p.prepare(ctx, false)
	if err != nil {
		return Solution{}, err
	}
	inc, err := p.incumbent(lib)
	if err != nil {
		return Solution{}, err
	}
	opt := exact.Options{NodeLimit: int64(p.Options.NodeLimit)}
	if inc != nil {
		opt.UpperBound = inc.Area(lib)
	}
	t0 := time.Now()
	dp, st, err := exact.AllocateCtx(ctx, p.Graph, lib, p.Lambda, opt)
	if err != nil {
		if errors.Is(err, exact.ErrTooLarge) {
			return Solution{}, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
		}
		return Solution{}, err
	}
	return newSolution("optimal", lib, dp, time.Since(t0), SolveStats{
		Nodes:    st.Nodes,
		TimedOut: st.Capped,
	}), nil
}

func solveILPMethod(ctx context.Context, p Problem) (Solution, error) {
	lib, err := p.prepare(ctx, false)
	if err != nil {
		return Solution{}, err
	}
	inc, err := p.incumbent(lib)
	if err != nil {
		return Solution{}, err
	}
	t0 := time.Now()
	r, err := ilp.SolveCtx(ctx, p.Graph, lib, p.Lambda, ilp.Options{
		TimeLimit: p.Options.TimeLimit,
		NodeLimit: p.Options.NodeLimit,
		Incumbent: inc,
	})
	if err != nil {
		return Solution{}, err
	}
	return newSolution("ilp", lib, r.DP, time.Since(t0), SolveStats{
		Nodes:    int64(r.Nodes),
		Vars:     r.Vars,
		Rows:     r.Rows,
		TimedOut: r.TimedOut,
	}), nil
}

func solvePipelined(ctx context.Context, p Problem) (Solution, error) {
	lib, err := p.prepare(ctx, true)
	if err != nil {
		return Solution{}, err
	}
	if p.II < 1 {
		return Solution{}, fmt.Errorf("%w: method \"pipelined\" needs an initiation interval ≥ 1 (got %d)", ErrInvalidProblem, p.II)
	}
	t0 := time.Now()
	dp, st, err := pipeline.AllocateCtx(ctx, p.Graph, lib, p.Lambda, p.II, pipeline.Options{})
	if err != nil {
		return Solution{}, err
	}
	return newSolution("pipelined", lib, dp, time.Since(t0), SolveStats{
		Iterations:  st.Iterations,
		Refinements: st.Refinements,
	}), nil
}

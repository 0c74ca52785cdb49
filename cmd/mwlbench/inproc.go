package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	mwl "repro"
	"repro/internal/anneal"
	"repro/internal/expt"
	"repro/internal/ilp"
	"repro/internal/tgff"
)

// job is one solve of an in-process workload.
type job struct {
	id       int // position in the full-size list; keys the paper golden
	p        mwl.Problem
	unshared int64 // area with one minimum-width resource per operation
	// reseed varies Options.Seed by round, so the portfolio's
	// process-lived memo never answers a repeat.
	reseed bool
}

// problem returns the job's problem in round r.
func (j job) problem(r int) mwl.Problem {
	p := j.p
	if j.reseed {
		p.Options.Seed += int64(r)
	}
	return p
}

// newJob generates one TGFF graph and wraps it as a problem at
// λ = (1+relax)·λ_min.
func newJob(id int, cfg tgff.Config, relax float64, method string) (job, error) {
	lib := mwl.DefaultLibrary()
	g, err := tgff.Generate(cfg)
	if err != nil {
		return job{}, err
	}
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		return job{}, err
	}
	var unshared int64
	for _, o := range g.Ops() {
		unshared += lib.Area(o.Spec.MinKind())
	}
	return job{id: id, p: mwl.Problem{Method: method, Graph: g, Lambda: expt.Lambda(lmin, relax)}, unshared: unshared}, nil
}

// Paper: the regime of the paper's evaluation, N ≤ 24 and λ up to
// 1.3·λ_min, below core.BatchMinOps where results are paper-exact.

var (
	paperSizes  = []int{4, 8, 12, 16, 20, 24}
	paperRelax  = []float64{0, 0.05, 0.10, 0.15, 0.30}
	paperGraphs = 100 // per (size, λ) cell; 4 at smoke scale
)

//go:embed testdata/paper-2001.golden
var paperGolden string

// goldenSeed is the seed the paper golden was recorded with.
const goldenSeed = 2001

func paperJobs(_ context.Context, seed int64, smoke bool) ([]job, error) {
	rnd := rand.New(rand.NewSource(seed))
	var jobs []job
	id := 0
	for _, n := range paperSizes {
		for _, relax := range paperRelax {
			for i := 0; i < paperGraphs; i++ {
				cfg := tgff.Config{N: n, Seed: rnd.Int63()}
				// A fixed third of the graphs has bimodal or clustered
				// widths, so the kind count varies across the list.
				switch i % 6 {
				case 4:
					cfg.Dist = tgff.WidthBimodal
				case 5:
					cfg.Dist = tgff.WidthClustered
				}
				if !smoke || i < 4 {
					j, err := newJob(id, cfg, relax, "dpalloc")
					if err != nil {
						return nil, err
					}
					jobs = append(jobs, j)
				}
				id++
			}
		}
	}
	return jobs, nil
}

// digest identifies a solution's area and datapath for the golden.
func digest(sol mwl.Solution) (string, error) {
	blob, err := json.Marshal(sol.Datapath)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(fmt.Sprintf("%d\n", sol.Area)), blob...))
	return hex.EncodeToString(sum[:8]), nil
}

// Large: graphs above core.BatchMinOps, on the batched-refinement path
// where bind and sched dominate and allocation is heaviest. At
// λ = 2·λ_min solve times spread evenly; nearer λ_min a few graphs take
// ten times the median, and a run would measure which graphs its seed
// drew rather than the solver; an N=1000 solve takes about 6 s, so one
// size keeps that from happening through the size drawn either. A round
// of 40 graphs takes about 6 s, so a run measures three or four rounds;
// three parts put 120 graphs behind each run's figures.
var (
	largeSize   = 400
	largeRelax  = 1.0
	largeGraphs = 120 // 3 at smoke scale
	largeParts  = 3
)

func largeJobs(_ context.Context, seed int64, smoke bool) ([]job, error) {
	rnd := rand.New(rand.NewSource(seed))
	count := largeGraphs
	if smoke {
		count = 3
	}
	var jobs []job
	for i := 0; i < count; i++ {
		j, err := newJob(i, tgff.Config{N: largeSize, Seed: rnd.Int63()}, largeRelax, "dpalloc")
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Search: the branch-and-bound ILP, the annealer and the portfolio race,
// the layers the dpalloc workloads never reach. ILP run times spread
// over three orders of magnitude from graph to graph, so the ILP cells
// are the two tightest λ of the paper's Table 2 under a small node cap,
// and the portfolio races N=12 graphs, since at N=16 the twostage
// entrant takes twenty times its median on one graph in twenty: a seed
// then draws no operation that dominates the run. The counts put the
// median of a part among the portfolio races and its p95 tail among
// the N=96 anneals, clear of the boundaries between methods.
var (
	ilpSize       = 8
	ilpRelax      = []float64{0, 0.05}
	ilpGraphs     = 120 // per λ; 1 at smoke scale
	ilpNodeLimit  = 5
	annealSizes   = []int{24, 48, 96}
	annealGraphs  = 48 // per size; 1 at smoke scale
	portfolioSize = 12
	portGraphs    = 336 // 1 at smoke scale
	searchRelax   = 0.2
	searchParts   = 3 // of 240 operations, about 3 s a round
)

func searchJobs(ctx context.Context, seed int64, smoke bool) ([]job, error) {
	rnd := rand.New(rand.NewSource(seed))
	scaled := func(n int) int {
		if smoke {
			return 1
		}
		return n
	}
	var jobs []job
	add := func(cfg tgff.Config, relax float64, method string) (*job, error) {
		j, err := newJob(len(jobs), cfg, relax, method)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		return &jobs[len(jobs)-1], nil
	}
	for _, relax := range ilpRelax {
		for i := 0; i < scaled(ilpGraphs); i++ {
			j, err := add(tgff.Config{N: ilpSize, Seed: rnd.Int63()}, relax, "ilp")
			if err != nil {
				return nil, err
			}
			// The heuristic's datapath is the incumbent, as lp_solve was
			// handed one in the paper's Table 2.
			inc, err := mwl.Solve(ctx, mwl.Problem{Graph: j.p.Graph, Lambda: j.p.Lambda})
			if err != nil {
				return nil, err
			}
			j.p.Options = mwl.SolveOptions{NodeLimit: ilpNodeLimit, TimeLimit: -1, Incumbent: inc.Datapath}
		}
	}
	for _, n := range annealSizes {
		for i := 0; i < scaled(annealGraphs); i++ {
			j, err := add(tgff.Config{N: n, Seed: rnd.Int63()}, searchRelax, "anneal")
			if err != nil {
				return nil, err
			}
			j.p.Options.Seed = rnd.Int63()
		}
	}
	for i := 0; i < scaled(portGraphs); i++ {
		j, err := add(tgff.Config{N: portfolioSize, Seed: rnd.Int63()}, searchRelax, "portfolio")
		if err != nil {
			return nil, err
		}
		j.p.Options.Seed = rnd.Int63()
		j.reseed = true
	}
	return jobs, nil
}

// inProcess returns the runner of an in-process workload: it builds the
// jobs, timing the set-up, deals them into parts and measures them. At
// the golden seed each first answer must match golden, when there is
// one.
func inProcess(build func(ctx context.Context, seed int64, smoke bool) ([]job, error), parts int, golden string) func(context.Context, config, *result) error {
	return func(ctx context.Context, cfg config, res *result) error {
		jobs, setup, err := timeSetup(func() ([]job, error) { return build(ctx, cfg.seed, cfg.smoke) }, nil)
		if err != nil {
			return err
		}
		res.set("setup_s", setup, setupReps)
		dealt := deal(jobs, parts)
		if cfg.trace {
			return traceJobs(ctx, cfg, res, slices.Concat(dealt...))
		}
		var want []string
		if golden != "" && cfg.seed == goldenSeed {
			want = strings.Fields(golden)
		}
		return runJobs(ctx, cfg, res, dealt, want)
	}
}

// deal splits jobs into n parts, job i into part i mod n, so that every
// part has the list's mix.
func deal(jobs []job, n int) [][]job {
	parts := make([][]job, n)
	for i, j := range jobs {
		parts[i%n] = append(parts[i%n], j)
	}
	return parts
}

// runJobs measures an in-process workload untraced. Round r solves part
// r mod len(parts), so a workload can average over more inputs than one
// round could solve while its rounds stay short. Rounds go on until the
// budget is spent, at least minRounds and one per part. Every timing is
// scaled by its round's slowdown, taken as the median over the part's
// rounds, and averaged over the parts.
func runJobs(ctx context.Context, cfg config, res *result, parts [][]job, golden []string) error {
	first := make([][]mwl.Solution, len(parts))
	opsPerS := make([][]float64, len(parts))
	p50s := make([][]float64, len(parts))
	tails := make([][]float64, len(parts))
	tailP := tailPercentile(len(parts[0]))
	start := time.Now()
	rounds := 0
	for ; rounds < max(minRounds, len(parts)) || fits(start, rounds, cfg.budget); rounds++ {
		s := rounds % len(parts)
		jobs := parts[s]
		isFirst := first[s] == nil
		if isFirst {
			first[s] = make([]mwl.Solution, len(jobs))
		}
		lat := make([]float64, len(jobs))
		var busy time.Duration
		var probe speedProbe
		runtime.GC() // no round pays for the garbage of the one before

		for i, j := range jobs {
			if sampleAt(i, len(jobs)) {
				probe.sample()
			}
			p := j.problem(rounds)
			ts := time.Now()
			sol, err := mwl.Solve(ctx, p)
			d := time.Since(ts)
			busy += d
			lat[i] = ms(d)
			res.Attempted++
			if err != nil {
				res.fail("job %d: %v", j.id, err)
				continue
			}
			checkJob(res, j, isFirst, p, sol, &first[s][i], golden)
		}
		f := probe.slowdown()
		res.Slowdown = append(res.Slowdown, f)
		opsPerS[s] = append(opsPerS[s], float64(len(jobs))/busy.Seconds()*f)
		p50s[s] = append(p50s[s], percentile(lat, 50)/f)
		tails[s] = append(tails[s], percentile(lat, tailP)/f)
	}
	var areaRatio float64
	n := 0
	for s, jobs := range parts {
		for i, j := range jobs {
			areaRatio += float64(first[s][i].Area) / float64(j.unshared)
			n++
		}
	}
	samples := rounds * len(parts[0])
	res.set("ops_per_s", meanOfMedians(opsPerS), rounds)
	res.set("latency_p50_ms", meanOfMedians(p50s), samples)
	res.setNote("latency_tail_ms", meanOfMedians(tails), samples, fmt.Sprintf("p%g", tailP))
	res.set("area_ratio", areaRatio/float64(n), n)
	res.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// fits reports whether one more round, as long as the average round so
// far, ends within budget.
func fits(start time.Time, rounds int, budget time.Duration) bool {
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(rounds) <= budget
}

// checkJob verifies a solution with mwl.Verify and, at the golden seed,
// the paper golden, keeping the job's first answer in first. A later
// answer equal in area and makespan to the first is accepted without
// verifying it again.
func checkJob(res *result, j job, isFirst bool, p mwl.Problem, sol mwl.Solution, first *mwl.Solution, golden []string) {
	if !isFirst && !j.reseed && sol.Area == first.Area && sol.Makespan == first.Makespan {
		return
	}
	if err := mwl.Verify(p, sol); err != nil {
		res.fail("job %d: %v", j.id, err)
		return
	}
	if !isFirst {
		return
	}
	*first = sol
	if golden != nil {
		d, err := digest(sol)
		if err != nil || j.id >= len(golden) || golden[j.id] != d {
			res.fail("job %d: answer differs from the paper golden", j.id)
		}
	}
}

// traceJobs is runJobs's traced run. An untraced phase cycles through
// the jobs for half the budget, giving the reference answers and times;
// a traced phase solves the same sequence with a span around every layer
// call and must reproduce each reference answer exactly.
func traceJobs(ctx context.Context, cfg config, res *result, jobs []job) error {
	ref := make([]mwl.Solution, len(jobs))
	var untraced time.Duration
	cpu0 := cpuSeconds()
	alloc0, gc0 := runtimeCounters()
	start := time.Now()
	n := 0
	for ; n == 0 || time.Since(start) < cfg.budget/2; n++ {
		j := jobs[n%len(jobs)]
		p := j.problem(n / len(jobs))
		ts := time.Now()
		sol, err := mwl.Solve(ctx, p)
		untraced += time.Since(ts)
		res.Attempted++
		if err != nil {
			res.fail("job %d: %v", j.id, err)
		}
		if n < len(jobs) {
			ref[n] = sol
		}
	}
	cpu1 := cpuSeconds()
	alloc1, gc1 := runtimeCounters()

	tr := newTracer()
	var dc dpCounters
	var lc layerCounters
	var traced time.Duration
	cycles := n/len(jobs) + 1
	for k := 0; k < n; k++ {
		tr.op = k
		i := k % len(jobs)
		j := jobs[i]
		// Reseeded jobs take seeds the untraced phase did not use, so the
		// portfolio memo cannot answer them.
		p := j.problem(k/len(jobs) + cycles)
		root := len(tr.spans)
		sol, err := tracedSolve(ctx, p, tr, &dc, &lc)
		if root < len(tr.spans) {
			traced += time.Duration(tr.spans[root].End - tr.spans[root].Start)
		}
		res.Attempted++
		if err != nil {
			res.fail("job %d traced: %v", j.id, err)
			continue
		}
		s := tr.begin("check", -1)
		err = mwl.Verify(p, sol)
		tr.end(s)
		if err != nil {
			res.fail("job %d traced: %v", j.id, err)
			continue
		}
		if !j.reseed && !matchesSolve(ctx, p, sol, ref[i]) {
			res.fail("job %d: shadow loop answered differently from mwl.Solve", j.id)
		}
	}
	res.spans = tr.spans

	res.set("process.cpu_s_per_op", (cpu1-cpu0)/float64(n), n)
	res.set("process.alloc_mb_per_op", float64(alloc1-alloc0)/(1<<20)/float64(n), n)
	res.set("process.gc_cycles_per_op", float64(gc1-gc0)/float64(n), n)
	res.set("trace.overhead_ratio", untraced.Seconds()/traced.Seconds(), n)
	setLayerMetrics(res, tr.spans, &dc, &lc)
	return nil
}

// layerCounters accumulates the work counts of the search layers.
type layerCounters struct {
	ilpOps, ilpNodes, ilpProven int
	annealOps, moves, accepted  int
	portfolioOps                int
}

// tracedSolve solves p calling the method's layer directly inside a span,
// and returns the Solution mwl.Solve would (Elapsed left zero).
func tracedSolve(ctx context.Context, p mwl.Problem, tr *tracer, dc *dpCounters, lc *layerCounters) (mwl.Solution, error) {
	lib, err := p.Library.Build()
	if err != nil {
		return mwl.Solution{}, err
	}
	switch p.Method {
	case "dpalloc":
		return shadowSolve(ctx, p, tr, dc)
	case "ilp":
		s := tr.begin("ilp", -1)
		r, err := ilp.SolveCtx(ctx, p.Graph, lib, p.Lambda, ilp.Options{
			TimeLimit: p.Options.TimeLimit,
			NodeLimit: p.Options.NodeLimit,
			Incumbent: p.Options.Incumbent,
		})
		tr.end(s)
		if err != nil {
			return mwl.Solution{}, err
		}
		lc.ilpOps++
		lc.ilpNodes += r.Nodes
		if !r.TimedOut {
			lc.ilpProven++
		}
		return envelope("ilp", lib, r.DP, mwl.SolveStats{Nodes: int64(r.Nodes), Vars: r.Vars, Rows: r.Rows, TimedOut: r.TimedOut}), nil
	case "anneal":
		s := tr.begin("anneal", -1)
		dp, st, err := anneal.AllocateCtx(ctx, p.Graph, lib, p.Lambda, anneal.Options{
			Seed:     p.Options.Seed,
			Moves:    p.Options.AnnealMoves,
			InitTemp: p.Options.AnnealInitTemp,
			Cooling:  p.Options.AnnealCooling,
		})
		tr.end(s)
		if err != nil {
			return mwl.Solution{}, err
		}
		lc.annealOps++
		lc.moves += st.Moves
		lc.accepted += st.Accepted
		return envelope("anneal", lib, dp, mwl.SolveStats{Iterations: st.Epochs, Moves: st.Moves, Accepted: st.Accepted, Merges: st.Merges, Evals: st.Evals}), nil
	default:
		s := tr.begin(p.Method, -1)
		sol, err := mwl.Solve(ctx, p)
		tr.end(s)
		lc.portfolioOps++
		return sol, err
	}
}

// matchesSolve reports whether sol is an answer mwl.Solve gives for p,
// want being one. The outer resource search breaks some ties by map
// iteration order, so a few problems have two answers; a mismatch is
// retried against fresh solves before it counts.
func matchesSolve(ctx context.Context, p mwl.Problem, sol, want mwl.Solution) bool {
	for try := 0; try < 64; try++ {
		if sameSolution(sol, want) {
			return true
		}
		var err error
		if want, err = mwl.Solve(ctx, p); err != nil {
			return false
		}
	}
	return false
}

// sameSolution reports whether two solutions encode identically apart
// from their timing and cache flag.
func sameSolution(a, b mwl.Solution) bool {
	a.Elapsed, b.Elapsed = 0, 0
	a.Cached, b.Cached = false, false
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// setLayerMetrics derives the per-layer metrics from the spans and the
// layers' work counts.
func setLayerMetrics(res *result, spans []span, dc *dpCounters, lc *layerCounters) {
	self := selfTimes(spans)
	count := countSpans(spans)
	dur := make(map[string]int64)
	for _, s := range spans {
		if s.Parent < 0 {
			dur[s.Name] += s.End - s.Start
		}
	}
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	msPer := func(ns int64, n int) float64 { return per(float64(ns)/1e6, n) }

	n := dc.ops
	res.set("wcg.ms_per_op", msPer(self["wcg"], n), n)
	res.set("wcg.kinds_per_op", per(float64(dc.kinds), n), n)
	res.set("sched.ms_per_op", msPer(self["sched"], n), n)
	res.set("sched.calls_per_op", per(float64(dc.schedCalls), n), n)
	res.set("sched.deadlock_ratio", per(float64(dc.schedDeadlocks), dc.schedCalls), dc.schedCalls)
	res.set("bind.ms_per_op", msPer(self["bind"], n), n)
	res.set("bind.alloc_mb_per_op", per(float64(dc.bindAlloc)/(1<<20), n), n)
	res.set("bind.evals_per_call", per(float64(dc.bindEvals), dc.bindCalls), dc.bindCalls)
	res.set("bind.merges_per_call", per(float64(dc.bindMerges), dc.bindCalls), dc.bindCalls)
	res.set("refine.ms_per_op", msPer(self["refine"], n), n)
	res.set("refine.victims_per_call", per(float64(dc.victims), dc.refineCalls), dc.refineCalls)
	res.set("assemble.ms_per_op", msPer(self["assemble"], n), n)
	res.set("datapath.verify_ms_per_op", msPer(self["datapath.verify"], n), n)
	res.set("core.rounds_per_op", per(float64(dc.rounds), n), n)
	res.set("core.configs_per_op", per(float64(dc.configs), n), n)
	res.set("core.infeasible_config_ratio", per(float64(dc.infeasibleConfigs), dc.configs), dc.configs)
	coverage := 0.0
	if dur["dpalloc"] > 0 {
		coverage = 1 - float64(self["dpalloc"])/float64(dur["dpalloc"])
	}
	res.set("core.phase_coverage", coverage, n)
	res.set("check.ms_per_op", msPer(self["check"], count["check"]), count["check"])

	res.set("ilp.ms_per_op", msPer(dur["ilp"], lc.ilpOps), lc.ilpOps)
	res.set("ilp.nodes_per_op", per(float64(lc.ilpNodes), lc.ilpOps), lc.ilpOps)
	res.set("ilp.ms_per_node", msPer(dur["ilp"], lc.ilpNodes), lc.ilpNodes)
	res.set("ilp.proven_ratio", per(float64(lc.ilpProven), lc.ilpOps), lc.ilpOps)
	res.set("anneal.ms_per_op", msPer(dur["anneal"], lc.annealOps), lc.annealOps)
	moveRate := 0.0
	if dur["anneal"] > 0 {
		moveRate = float64(lc.moves) / (float64(dur["anneal"]) / 1e9)
	}
	res.set("anneal.moves_per_s", moveRate, lc.annealOps)
	res.set("anneal.accept_ratio", per(float64(lc.accepted), lc.moves), lc.moves)
	res.set("portfolio.ms_per_op", msPer(dur["portfolio"], lc.portfolioOps), lc.portfolioOps)
}

// runtimeCounters reads this process's cumulative heap allocation and
// completed GC cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md §4), plus ablations of the design choices DESIGN.md §5
// calls out. Quality metrics (areas, penalties) are attached to the
// timing output via b.ReportMetric, so `go test -bench=. -benchmem`
// reproduces both the performance series (Fig. 5, Table 2) and the
// solution-quality series (Fig. 3, Fig. 4) at reduced scale.
// cmd/experiments runs the full sweeps.
package mwl_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	mwl "repro"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/expt"
	"repro/internal/ilp"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/refine"
	"repro/internal/sched"
	"repro/internal/tgff"
	"repro/internal/twostage"
	"repro/internal/wcg"
)

const benchSeed = 2001

// BenchmarkFig3 regenerates one cell per relaxation of the Fig. 3 sweep
// at |O|=12, reporting the mean area penalty of the two-stage baseline
// over the heuristic.
func BenchmarkFig3(b *testing.B) {
	for _, relax := range []float64{0, 0.15, 0.30} {
		b.Run(fmt.Sprintf("relax=%.0f%%", relax*100), func(b *testing.B) {
			cfg := expt.Config{Graphs: 10, Seed: benchSeed}
			var last float64
			for i := 0; i < b.N; i++ {
				pts, err := expt.Fig3(context.Background(), cfg, []int{12}, []float64{relax})
				if err != nil {
					b.Fatal(err)
				}
				last = pts[0].MeanPenaltyPct
			}
			b.ReportMetric(last, "penalty-%")
		})
	}
}

// BenchmarkFig4 regenerates the Fig. 4 premium-over-optimum series for a
// few sizes at λ = λ_min.
func BenchmarkFig4(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := expt.Config{Graphs: 10, Seed: benchSeed}
			var last float64
			for i := 0; i < b.N; i++ {
				pts, err := expt.Fig4(context.Background(), cfg, []int{n}, 20_000_000)
				if err != nil {
					b.Fatal(err)
				}
				last = pts[0].MeanPremiumPct
			}
			b.ReportMetric(last, "premium-%")
		})
	}
}

// BenchmarkFig5Heuristic / BenchmarkFig5ILP time the two methods per
// graph across problem sizes at λ = λ_min: the paper's Fig. 5 series.
func BenchmarkFig5Heuristic(b *testing.B) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{2, 4, 6, 8, 10} {
		graphs, err := tgff.Batch(n, 10, benchSeed, tgff.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				lmin, err := g.MinMakespan(lib)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.Allocate(g, lib, lmin, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5ILP(b *testing.B) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{2, 4, 6, 8} {
		graphs, err := tgff.Batch(n, 10, benchSeed, tgff.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				lmin, err := g.MinMakespan(lib)
				if err != nil {
					b.Fatal(err)
				}
				h, _, err := core.Allocate(g, lib, lmin, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ilp.Solve(g, lib, lmin, ilp.Options{
					TimeLimit: 20 * time.Second, Incumbent: h,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Heuristic / BenchmarkTable2ILP time 9-operation graphs
// as the latency constraint relaxes: the paper's Table 2. The heuristic
// series stays flat; the ILP series grows steeply (its variable count
// scales with λ).
func BenchmarkTable2Heuristic(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(9, 10, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, relax := range []float64{0, 0.05, 0.10, 0.15} {
		b.Run(fmt.Sprintf("lambda=%.2f", 1+relax), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				lmin, err := g.MinMakespan(lib)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.Allocate(g, lib, expt.Lambda(lmin, relax), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2ILP(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(9, 4, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, relax := range []float64{0, 0.05, 0.10, 0.15} {
		b.Run(fmt.Sprintf("lambda=%.2f", 1+relax), func(b *testing.B) {
			capped := 0
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				lmin, err := g.MinMakespan(lib)
				if err != nil {
					b.Fatal(err)
				}
				lambda := expt.Lambda(lmin, relax)
				h, _, err := core.Allocate(g, lib, lambda, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				r, err := ilp.Solve(g, lib, lambda, ilp.Options{
					TimeLimit: 10 * time.Second, Incumbent: h,
				})
				if err != nil {
					b.Fatal(err)
				}
				if r.TimedOut {
					capped++
				}
			}
			b.ReportMetric(float64(capped), "capped")
		})
	}
}

// ---- ablations ----

// benchGraphs is the shared ablation workload.
func benchGraphs(b *testing.B, n, count int) []*wcg.Graph {
	b.Helper()
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(n, count, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*wcg.Graph, len(graphs))
	for i, g := range graphs {
		w, err := wcg.Build(g, lib)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = w
	}
	return out
}

// BenchmarkAblationGrowth isolates the clique-growth compensation step in
// BindSelect: mean bound area with and without it.
func BenchmarkAblationGrowth(b *testing.B) {
	ws := benchGraphs(b, 14, 20)
	for _, disable := range []bool{false, true} {
		name := "growth=on"
		if disable {
			name = "growth=off"
		}
		b.Run(name, func(b *testing.B) {
			var area int64
			for i := 0; i < b.N; i++ {
				area = 0
				for _, w := range ws {
					r, err := sched.List(w, nil)
					if err != nil {
						b.Fatal(err)
					}
					bd, _, err := bind.SelectStats(w, r.Start, bind.Options{DisableGrowth: disable})
					if err != nil {
						b.Fatal(err)
					}
					area += bd.Area(w)
				}
			}
			b.ReportMetric(float64(area)/float64(len(ws)), "mean-area")
		})
	}
}

// BenchmarkAblationClosure isolates the kind join-closure: allocation
// area with the full closed kind set vs operations' own kinds only.
func BenchmarkAblationClosure(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(12, 15, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "closure=on"
		if disable {
			name = "closure=off"
		}
		b.Run(name, func(b *testing.B) {
			var area int64
			for i := 0; i < b.N; i++ {
				area = 0
				for _, g := range graphs {
					lmin, err := g.MinMakespan(lib)
					if err != nil {
						b.Fatal(err)
					}
					dp, _, err := core.Allocate(g, lib, expt.Lambda(lmin, 0.2),
						core.Options{DisableClosure: disable})
					if err != nil {
						b.Fatal(err)
					}
					area += dp.Area(lib)
				}
			}
			b.ReportMetric(float64(area)/float64(len(graphs)), "mean-area")
		})
	}
}

// BenchmarkAblationVictim compares the paper's smallest-proportion
// refinement victim policy against naive first-reducible.
func BenchmarkAblationVictim(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(12, 15, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	policies := []struct {
		name string
		p    refine.Policy
	}{
		{"victim=paper", nil},
		{"victim=first", refine.FirstReducible},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var area int64
			for i := 0; i < b.N; i++ {
				area = 0
				for _, g := range graphs {
					lmin, err := g.MinMakespan(lib)
					if err != nil {
						b.Fatal(err)
					}
					dp, _, err := core.Allocate(g, lib, expt.Lambda(lmin, 0.1),
						core.Options{Victim: pol.p})
					if err != nil {
						b.Fatal(err)
					}
					area += dp.Area(lib)
				}
			}
			b.ReportMetric(float64(area)/float64(len(graphs)), "mean-area")
		})
	}
}

// BenchmarkAblationEqn3 measures the scheduling constraint itself:
// how often a unit-resource schedule accepted by the classical Eqn. 2
// is actually unbindable, which Eqn. 3 catches up front.
func BenchmarkAblationEqn3(b *testing.B) {
	ws := benchGraphs(b, 10, 30)
	limits := sched.Limits{mwl.Mul: 1, mwl.Add: 1}
	fullyRefine := func(w *wcg.Graph) *wcg.Graph {
		// Fully refine to expose kind conflicts, as after many DPAlloc
		// iterations.
		c := w.Clone()
		c.FullyRefine()
		return c
	}
	b.Run("eqn3", func(b *testing.B) {
		rejected := 0
		for i := 0; i < b.N; i++ {
			rejected = 0
			for _, w := range ws {
				if _, err := sched.List(fullyRefine(w), limits); err != nil {
					rejected++
				}
			}
		}
		b.ReportMetric(float64(rejected), "rejected")
	})
	b.Run("eqn2", func(b *testing.B) {
		rejected := 0
		for i := 0; i < b.N; i++ {
			rejected = 0
			for _, w := range ws {
				if _, err := sched.ListEqn2(fullyRefine(w), limits); err != nil {
					rejected++
				}
			}
		}
		b.ReportMetric(float64(rejected), "rejected")
	})
}

// BenchmarkAblationFullArea asks whether the heuristic's functional-unit
// area advantage over the two-stage baseline survives when register and
// interconnect area are added (internal/regalloc): resource sharing
// saves FU area but costs muxes. Reports mean FU-only and full-datapath
// penalties of the baseline over the heuristic.
func BenchmarkAblationFullArea(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(14, 15, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var fuPenalty, fullPenalty float64
	for i := 0; i < b.N; i++ {
		fuPenalty, fullPenalty = 0, 0
		for _, g := range graphs {
			lmin, err := g.MinMakespan(lib)
			if err != nil {
				b.Fatal(err)
			}
			lambda := expt.Lambda(lmin, 0.2)
			h, _, err := core.Allocate(g, lib, lambda, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ts, _, err := twostage.Allocate(g, lib, lambda)
			if err != nil {
				b.Fatal(err)
			}
			hp, err := mwl.AllocateRegisters(g, lib, h, mwl.RegisterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			tp, err := mwl.AllocateRegisters(g, lib, ts, mwl.RegisterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			fuPenalty += 100 * (float64(ts.Area(lib)) - float64(h.Area(lib))) / float64(h.Area(lib))
			fullPenalty += 100 * (float64(tp.TotalArea()) - float64(hp.TotalArea())) / float64(hp.TotalArea())
		}
		fuPenalty /= float64(len(graphs))
		fullPenalty /= float64(len(graphs))
	}
	b.ReportMetric(fuPenalty, "fu-penalty-%")
	b.ReportMetric(fullPenalty, "full-penalty-%")
}

// BenchmarkPipelineII traces the pipelined throughput/area trade-off
// (extension; internal/pipeline): mean datapath area across initiation
// intervals from fully overlapped to sequential on a fixed workload.
func BenchmarkPipelineII(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(12, 10, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []float64{1.0, 1.5, 2.5} {
		b.Run(fmt.Sprintf("II=%.1fxMin", f), func(b *testing.B) {
			var area int64
			for i := 0; i < b.N; i++ {
				area = 0
				for _, g := range graphs {
					lmin, err := g.MinMakespan(lib)
					if err != nil {
						b.Fatal(err)
					}
					ii := int(float64(mwl.MinII(g, lib)) * f)
					dp, _, err := pipeline.Allocate(g, lib, expt.Lambda(lmin, 0.5), ii, pipeline.Options{})
					if err != nil {
						b.Fatal(err)
					}
					area += dp.Area(lib)
				}
			}
			b.ReportMetric(float64(area)/float64(len(graphs)), "mean-area")
		})
	}
}

// BenchmarkTwoStage times the baseline's optimal branch-and-bound
// binding, the dominant cost at the top of the Fig. 3 size range.
func BenchmarkTwoStage(b *testing.B) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{8, 16, 24} {
		graphs, err := tgff.Batch(n, 5, benchSeed, tgff.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				lmin, err := g.MinMakespan(lib)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := twostage.Allocate(g, lib, expt.Lambda(lmin, 0.3)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateScaling shows the heuristic's polynomial scaling well
// beyond the paper's 24-operation range.
func BenchmarkAllocateScaling(b *testing.B) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{10, 25, 50, 100, 500, 1000} {
		graphs, err := tgff.Batch(n, 3, benchSeed, tgff.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphs[i%len(graphs)]
				lmin, err := g.MinMakespan(lib)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := core.Allocate(g, lib, expt.Lambda(lmin, 0.2), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeSearch times the automatic resource-bound search in the
// shape of mwlbench's large workload: layered TGFF graphs of 400
// operations at λ = 2·λ_min, where most schedule/bind/refine rounds are
// Eqn. 3 deadlocks.
func BenchmarkLargeSearch(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(400, 3, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("N=400", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := graphs[i%len(graphs)]
			lmin, err := g.MinMakespan(lib)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := core.Allocate(g, lib, 2*lmin, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLayer times single solver layers on frozen mid-solve
// fixtures. sched/{list,try} schedule a 400-operation graph halfway
// down the deadlock rounds of the first resource-bound configuration
// (every class at its utilisation lower bound, λ = 2·λ_min): List runs
// to the deadlock, Try stops at the first placement that proves it.
//
// sched/set and refine/{choose,queue} time the work that round hands to
// the next, on a clone made outside the timer. The layer's scratch is as
// warm as in a ladder's consecutive deadlock rounds: outside the timer it
// has already served the fixture round, which refined its victims. Then
// sched/set computes the next round's scheduling set, and refine/choose
// (ChooseVictim over all operations) and refine/queue (StepAll's lazy
// queue) pick and delete the next round's victims.
func BenchmarkLayer(b *testing.B) {
	g, limits, victims := deadlockFixture(b, 400)
	for _, layer := range []struct {
		name string
		run  func(*sched.Scratch, *wcg.Graph, sched.Limits) (sched.Result, error)
	}{{"list", (*sched.Scratch).List}, {"try", (*sched.Scratch).Try}} {
		b.Run("sched/"+layer.name+"/N=400", func(b *testing.B) {
			// A ladder's scratch is warm after its first round.
			var s sched.Scratch
			layer.run(&s, g, limits)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := layer.run(&s, g, limits); err == nil {
					b.Fatal("fixture schedules")
				}
			}
		})
	}
	b.Run("sched/set/N=400", func(b *testing.B) {
		var s sched.Scratch
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := g.Clone()
			s.SchedulingSet(c)
			chooseVictims(c, victims)
			b.StartTimer()
			s.SchedulingSet(c)
		}
	})
	for _, layer := range []struct {
		name string
		run  func(*refine.Scratch, *wcg.Graph, int) int
	}{
		{"choose", func(_ *refine.Scratch, g *wcg.Graph, k int) int { return chooseVictims(g, k) }},
		{"queue", func(s *refine.Scratch, g *wcg.Graph, k int) int { return s.StepAll(g, nil, k) }},
	} {
		b.Run("refine/"+layer.name+"/N=400", func(b *testing.B) {
			var s refine.Scratch
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := g.Clone()
				layer.run(&s, c, victims)
				b.StartTimer()
				if layer.run(&s, c, victims) == 0 {
					b.Fatal("nothing left to refine")
				}
			}
		})
	}
}

// chooseVictims refines up to k victims of ChooseVictim over all
// operations, as one Eqn. 3 deadlock round does, and returns how many.
func chooseVictims(g *wcg.Graph, k int) int {
	all := make([]dfg.OpID, g.D.N())
	for i := range all {
		all[i] = dfg.OpID(i)
	}
	for j := 0; j < k; j++ {
		o, ok := refine.ChooseVictim(g, nil, all)
		if !ok {
			return j
		}
		g.DeleteMaxLatencyEdges(o)
	}
	return k
}

// deadlockFixture replays core's schedule/bind/refine ladder on an
// n-operation graph at λ = 2·λ_min and its first configuration (every
// class at its utilisation lower bound), and returns the graph of the
// middle one of the ladder's Eqn. 3 deadlock rounds, with the limits and
// the number of victims that round refines.
func deadlockFixture(b *testing.B, n int) (*wcg.Graph, sched.Limits, int) {
	b.Helper()
	lib := mwl.DefaultLibrary()
	d, err := tgff.Generate(tgff.Config{N: n, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	lmin, err := d.MinMakespan(lib)
	if err != nil {
		b.Fatal(err)
	}
	lambda := 2 * lmin
	busy := make(map[mwl.OpType]int)
	for _, o := range d.Ops() {
		busy[o.Spec.Type.HardwareClass()] += model.MinLatency(o.Spec, lib)
	}
	limits := make(sched.Limits)
	for y, v := range busy {
		limits[y] = max(1, (v+lambda-1)/lambda)
	}
	g, err := wcg.Build(d, lib)
	if err != nil {
		b.Fatal(err)
	}
	// core's refinement batches for n ≥ BatchMinOps.
	batchA, batchB := min(16, n/128), n/64
	type round struct {
		g       *wcg.Graph
		victims int
	}
	var deadlocks []round
	for iter := 0; ; iter++ {
		r, err := sched.List(g, limits)
		if err != nil {
			ka := min(64, batchA+iter/8)
			deadlocks = append(deadlocks, round{g.Clone(), ka})
			if chooseVictims(g, ka) == 0 {
				break
			}
			continue
		}
		bd, _, err := bind.SelectStats(g, r.Start, bind.Options{})
		if err != nil {
			b.Fatal(err)
		}
		m := 0
		for o, t := range r.Start {
			m = max(m, t+bd.BoundLatency(g, dfg.OpID(o)))
		}
		if m <= lambda {
			break
		}
		k := min(batchB, max(1, (m-lambda)/4))
		if refine.StepBatch(g, r.Start, bd, lambda, refine.ChooseVictim, k) == 0 {
			break
		}
	}
	if len(deadlocks) == 0 {
		b.Fatal("the ladder has no deadlock round")
	}
	mid := deadlocks[len(deadlocks)/2]
	return mid.g, limits, mid.victims
}

// BenchmarkAnneal times the simulated-annealing backend across problem
// sizes at a relaxed λ, reporting the achieved area next to DPAlloc's
// on the same graphs so the quality/runtime trade-off is visible in
// BENCH.json.
func BenchmarkAnneal(b *testing.B) {
	lib := mwl.DefaultLibrary()
	for _, n := range []int{8, 12, 16} {
		graphs, err := tgff.Batch(n, 10, benchSeed, tgff.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var annArea, heurArea int64
			for i := 0; i < b.N; i++ {
				annArea, heurArea = 0, 0
				for gi, g := range graphs {
					lmin, err := g.MinMakespan(lib)
					if err != nil {
						b.Fatal(err)
					}
					lambda := lmin + lmin/5
					sol, err := mwl.Solve(context.Background(), mwl.Problem{
						Method: "anneal", Graph: g, Lambda: lambda,
						Options: mwl.SolveOptions{Seed: int64(gi), AnnealMoves: 4000},
					})
					if err != nil {
						b.Fatal(err)
					}
					annArea += sol.Area
					h, _, err := core.Allocate(g, lib, lambda, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					heurArea += h.Area(lib)
				}
			}
			b.ReportMetric(float64(annArea)/float64(len(graphs)), "anneal-mean-area")
			b.ReportMetric(float64(heurArea)/float64(len(graphs)), "dpalloc-mean-area")
		})
	}
}

// BenchmarkPortfolio times the portfolio race over the default heuristic
// entrants, reporting the winning area.
func BenchmarkPortfolio(b *testing.B) {
	lib := mwl.DefaultLibrary()
	graphs, err := tgff.Batch(12, 10, benchSeed, tgff.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var winArea int64
	for i := 0; i < b.N; i++ {
		winArea = 0
		for gi, g := range graphs {
			lmin, err := g.MinMakespan(lib)
			if err != nil {
				b.Fatal(err)
			}
			sol, err := mwl.Solve(context.Background(), mwl.Problem{
				Method: "portfolio", Graph: g, Lambda: lmin + lmin/5,
				Options: mwl.SolveOptions{Seed: int64(gi), AnnealMoves: 2000},
			})
			if err != nil {
				b.Fatal(err)
			}
			winArea += sol.Area
		}
	}
	b.ReportMetric(float64(winArea)/float64(len(graphs)), "portfolio-mean-area")
}

// BenchmarkWire times the request-path wire work of one mwld solve on
// the serve workload's problem shape (a TGFF graph of 30 operations at
// λ = 2·λ_min): decoding the request body and hashing the problem.
func BenchmarkWire(b *testing.B) {
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		b.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: 2 * lmin}
	body, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode/N=30", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var q mwl.Problem
			if err := json.Unmarshal(body, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hash/N=30", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Hash(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

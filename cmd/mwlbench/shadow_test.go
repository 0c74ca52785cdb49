package main

import (
	"context"
	"testing"

	mwl "repro"
	"repro/internal/tgff"
)

// TestShadowMatchesSolve checks the traced dpalloc loop against
// mwl.Solve on both sides of core.BatchMinOps, with the automatic
// resource search and with fixed limits: same datapath, same area and
// the same effort counters.
func TestShadowMatchesSolve(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ n, graphs int }{{12, 12}, {250, 2}} {
		solvedFixed := 0
		for seed := int64(1); seed <= int64(c.graphs); seed++ {
			j, err := newJob(0, tgff.Config{N: c.n, Seed: seed}, 0.3, "dpalloc")
			if err != nil {
				t.Fatal(err)
			}
			fixed := j.p
			fixed.Options.Limits = map[string]int{}
			for _, o := range j.p.Graph.Ops() {
				fixed.Options.Limits[o.Spec.Type.HardwareClass().String()]++
			}
			for class, n := range fixed.Options.Limits {
				fixed.Options.Limits[class] = (n + 1) / 2
			}
			for _, p := range []mwl.Problem{j.p, fixed} {
				want, errWant := mwl.Solve(ctx, p)
				tr := newTracer()
				var dc dpCounters
				got, errGot := shadowSolve(ctx, p, tr, &dc)
				if (errWant == nil) != (errGot == nil) {
					t.Fatalf("N=%d seed %d limits %v: mwl.Solve error %v, shadow loop error %v", c.n, seed, p.Options.Limits, errWant, errGot)
				}
				if errWant != nil {
					continue
				}
				if p.Options.Limits != nil {
					solvedFixed++
				}
				if !matchesSolve(ctx, p, got, want) {
					t.Errorf("N=%d seed %d limits %v: shadow loop answered %+v, mwl.Solve %+v", c.n, seed, p.Options.Limits, got.Stats, want.Stats)
				}
				count := countSpans(tr.spans)
				for _, name := range []string{"dpalloc", "wcg", "sched", "bind", "assemble", "datapath.verify"} {
					if count[name] == 0 {
						t.Errorf("N=%d seed %d: no %s span", c.n, seed, name)
					}
				}
				if dc.schedCalls != got.Stats.Iterations || dc.configs != got.Stats.Configs {
					t.Errorf("N=%d seed %d: counted %d schedules and %d configs, solution reports %d and %d",
						c.n, seed, dc.schedCalls, dc.configs, got.Stats.Iterations, got.Stats.Configs)
				}
			}
		}
		if solvedFixed == 0 {
			t.Errorf("N=%d: no problem was feasible under the fixed limits", c.n)
		}
	}
}

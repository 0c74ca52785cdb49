package core

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tgff"
)

// TestWorkspaceReuseMatchesFresh: ladders run back to back in one
// Workspace answer exactly as ladders in fresh ones. Within a size the
// graphs share N and kind count, so every buffer of the reused
// Workspace fits the next graph as it is, and its clone keeps its
// address from configuration to configuration and from solve to solve:
// only the resets of Workspace.Start stand between a ladder and the
// previous graph's scheduling-set trace and victim queue. Each solve is
// replayed configuration by configuration, every ladder in a fresh
// Workspace, and must give the same Datapath and Stats. (Replaying the
// configurations the reused solve tried, rather than solving afresh,
// keeps blame's map-order tie-break out of the comparison.)
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	lib := model.Default()
	ws := new(Workspace)
	cases := []struct{ n, graphs int }{{6, 12}, {8, 16}, {10, 12}, {16, 12}, {24, 12}, {BatchMinOps, 3}}
	for _, c := range cases {
		lambdas := []int{10, 12, 20}
		if testing.Short() && c.n >= BatchMinOps {
			c.graphs, lambdas = 2, []int{20}
		}
		for i, g := range sameShape(t, lib, c.n, c.graphs) {
			lmin, err := MinLambda(g, lib)
			if err != nil {
				t.Fatal(err)
			}
			for _, tenths := range lambdas {
				name := fmt.Sprintf("N=%d/graph=%d/λ=%d.%dλmin", c.n, i, tenths/10, tenths%10)
				s := newDPSearch(g, lib, lmin*tenths/10, Options{})
				got, tried := solveIn(t, s, ws)
				if want := replayFresh(t, s, tried); got != want {
					t.Fatalf("%s after %d configurations:\n got %.300s\nwant %.300s", name, len(tried), got, want)
				}
			}
		}
	}
}

// sameShape returns count TGFF graphs of n operations that share the
// kind count of the first graph generated.
func sameShape(t *testing.T, lib *model.Library, n, count int) []*dfg.Graph {
	t.Helper()
	var out []*dfg.Graph
	kinds := -1
	for seed := int64(1); len(out) < count; seed++ {
		if seed > int64(50*count) {
			t.Fatalf("N=%d: only %d graphs with %d kinds", n, len(out), kinds)
		}
		g, err := tgff.Generate(tgff.Config{N: n, Seed: 104729 * seed})
		if err != nil {
			t.Fatal(err)
		}
		k := len(model.ExtractKinds(g.Specs(), lib))
		if kinds < 0 {
			kinds = k
		}
		if k == kinds {
			out = append(out, g)
		}
	}
	return out
}

// solveIn runs s's sequential search with every ladder in ws and returns
// the outcome and the configurations tried.
func solveIn(t *testing.T, s *dpSearch, ws *Workspace) (string, []sched.Limits) {
	t.Helper()
	base, err := s.base()
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	var tried []sched.Limits
	ladder := s.ladder(base, ws, &st)
	dp, configs, err := run(context.Background(), s.search, func(ctx context.Context, limits sched.Limits) (*datapath.Datapath, error) {
		tried = append(tried, maps.Clone(limits))
		return ladder(ctx, limits)
	})
	st.Configs = configs
	return outcome(dp, st, err), tried
}

// replayFresh runs the ladders of tried in order, each in a fresh
// Workspace, and returns the outcome of the last.
func replayFresh(t *testing.T, s *dpSearch, tried []sched.Limits) string {
	t.Helper()
	base, err := s.base()
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	var dp *datapath.Datapath
	for _, limits := range tried {
		dp, err = s.ladder(base, new(Workspace), &st)(context.Background(), limits)
	}
	st.Configs = len(tried)
	return outcome(dp, st, err)
}

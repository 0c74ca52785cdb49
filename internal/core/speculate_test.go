package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/datapath"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tgff"
)

// TestSpeculativeSearchMatchesSequential: the speculative resource-bound
// search returns the datapath and Stats of the one-configuration-at-a-
// time search, JSON for JSON, for several worker counts — including
// when every prediction is forced wrong, so each committed ladder is
// followed by a cancel-and-restart of the chain.
func TestSpeculativeSearchMatchesSequential(t *testing.T) {
	lib := model.Default()
	// Every class one resource above the true next configuration: never
	// the configuration the search needs.
	wrong := func(l sched.Limits) {
		for y := range l {
			l[y]++
		}
	}
	cases := []struct {
		n     int
		seeds int
	}{{BatchMinOps, 3}, {400, 2}, {1000, 1}}
	for _, c := range cases {
		seeds := c.seeds
		if testing.Short() {
			if c.n == 1000 {
				continue
			}
			seeds = 1
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g, err := tgff.Generate(tgff.Config{N: c.n, Seed: 7919 * seed})
			if err != nil {
				t.Fatal(err)
			}
			lmin, err := MinLambda(g, lib)
			if err != nil {
				t.Fatal(err)
			}
			for _, tenths := range []int{12, 20} {
				lambda := lmin * tenths / 10
				s := newDPSearch(g, lib, lambda, Options{})
				want := outcome(s.sequential(context.Background(), new(Workspace)))
				variants := []struct {
					workers int
					skew    func(sched.Limits)
				}{{2, nil}, {4, nil}, {2, wrong}}
				if c.n == 1000 {
					variants = variants[:1] // the smaller sizes cover the rest
				}
				for _, v := range variants {
					name := fmt.Sprintf("N=%d/seed=%d/λ=%d.%dλmin/workers=%d/mispredict=%t",
						c.n, seed, tenths/10, tenths%10, v.workers, v.skew != nil)
					got := outcome(s.speculative(context.Background(), v.workers, v.skew))
					if got != want {
						t.Errorf("%s:\n got %.300s\nwant %.300s", name, got, want)
					}
				}
			}
		}
	}
}

// outcome renders a search's result for comparison.
func outcome(dp *datapath.Datapath, st Stats, err error) string {
	// A Datapath and Stats hold only ints, slices and plain structs,
	// which always marshal.
	b, _ := json.Marshal(struct {
		Datapath *datapath.Datapath
		Stats    Stats
		Err      string
	}{dp, st, fmt.Sprint(err)})
	return string(b)
}

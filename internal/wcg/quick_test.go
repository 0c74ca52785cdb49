package wcg

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
)

// TestRefinementInvariantsQuick drives random refinement sequences over
// random graphs and checks the §2.4 state invariants after every step:
// the latency upper bound L_o never increases and never drops below the
// minimum latency, every operation keeps at least one compatible kind,
// and the total H-edge count strictly decreases on every accepted
// deletion.
func TestRefinementInvariantsQuick(t *testing.T) {
	lib := model.Default()
	f := func(seed int64, steps uint8) bool {
		g, err := tgff.Generate(tgff.Config{N: 8, Seed: seed})
		if err != nil {
			return false
		}
		w, err := Build(g, lib)
		if err != nil {
			return false
		}
		rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
		prevUpper := make([]int, g.N())
		for o := range prevUpper {
			prevUpper[o] = w.UpperLatency(dfg.OpID(o))
		}
		for s := 0; s < int(steps%40); s++ {
			o := dfg.OpID(rnd.Intn(g.N()))
			edges := w.NumHEdges()
			reducible := w.Reducible(o)
			deleted := w.DeleteMaxLatencyEdges(o)
			if !reducible && deleted != 0 {
				t.Logf("deleted %d edges from irreducible op %d", deleted, o)
				return false
			}
			if reducible && deleted == 0 {
				t.Logf("reducible op %d deleted nothing", o)
				return false
			}
			if w.NumHEdges() != edges-deleted {
				return false
			}
			for i := 0; i < g.N(); i++ {
				id := dfg.OpID(i)
				if len(w.CompatKinds(id)) == 0 {
					t.Logf("op %d lost all kinds", i)
					return false
				}
				u := w.UpperLatency(id)
				if u > prevUpper[i] {
					t.Logf("op %d upper bound rose %d -> %d", i, prevUpper[i], u)
					return false
				}
				if u < w.MinLatency(id) {
					return false
				}
				prevUpper[i] = u
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxChainQuick: MaxChain must always return a pairwise-disjoint
// subset whose size matches an independent greedy recomputation, for
// arbitrary interval soups.
func TestMaxChainQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		var ivs []Interval
		for i, r := range raw {
			if len(ivs) >= 24 {
				break
			}
			start := int(r % 50)
			length := 1 + int(r/50)%7
			ivs = append(ivs, Interval{Op: dfg.OpID(i), Start: start, End: start + length})
		}
		chain := MaxChain(append([]Interval(nil), ivs...))
		// Chain must be pairwise disjoint.
		if !IsChain(append([]Interval(nil), chain...)) {
			return false
		}
		// And maximum: compare against brute force over subsets for small
		// inputs, or the classic greedy count otherwise.
		if len(ivs) <= 12 {
			best := 0
			for mask := 0; mask < 1<<len(ivs); mask++ {
				var sub []Interval
				for i := range ivs {
					if mask&(1<<i) != 0 {
						sub = append(sub, ivs[i])
					}
				}
				if IsChain(sub) && len(sub) > best {
					best = len(sub)
				}
			}
			return len(chain) == best
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFullyRefineIsTheFixpointQuick: any random sequence of
// DeleteMaxLatencyEdges calls, continued until no operation is
// Reducible, ends in the graph FullyRefine produces — the same H edges
// per operation and per kind and the same latency bounds. The
// speculative resource-bound search in core predicts each failing
// configuration from that unique fixpoint.
func TestFullyRefineIsTheFixpointQuick(t *testing.T) {
	lib := model.Default()
	f := func(seed int64, n uint8) bool {
		g, err := tgff.Generate(tgff.Config{N: 4 + int(n%40), Seed: seed})
		if err != nil {
			return false
		}
		base, err := Build(g, lib)
		if err != nil {
			return false
		}
		want := base.Clone()
		deleted := want.FullyRefine()
		if base.NumHEdges()-deleted != want.NumHEdges() {
			t.Logf("FullyRefine reported %d deletions, edge count fell by %d", deleted, base.NumHEdges()-want.NumHEdges())
			return false
		}
		got := base.Clone()
		rnd := rand.New(rand.NewSource(seed ^ 0xf1c5))
		for {
			var open []dfg.OpID
			for o := 0; o < g.N(); o++ {
				if got.Reducible(dfg.OpID(o)) {
					open = append(open, dfg.OpID(o))
				}
			}
			if len(open) == 0 {
				break
			}
			// Random victims, reducible or not: irreducible ones are
			// no-ops and must stay so.
			got.DeleteMaxLatencyEdges(dfg.OpID(rnd.Intn(g.N())))
			got.DeleteMaxLatencyEdges(open[rnd.Intn(len(open))])
		}
		if got.NumHEdges() != want.NumHEdges() {
			t.Logf("seed %d: %d H edges, FullyRefine left %d", seed, got.NumHEdges(), want.NumHEdges())
			return false
		}
		for o := 0; o < g.N(); o++ {
			id := dfg.OpID(o)
			if !slices.Equal(got.CompatKinds(id), want.CompatKinds(id)) ||
				got.UpperLatency(id) != want.UpperLatency(id) ||
				got.MinLatency(id) != want.MinLatency(id) {
				t.Logf("seed %d: op %d differs from the fixpoint", seed, o)
				return false
			}
			if want.UpperLatency(id) != want.MinLatency(id) {
				t.Logf("seed %d: op %d still reducible after FullyRefine", seed, o)
				return false
			}
		}
		for k := range want.Kinds {
			if got.CompatOpCount(k) != want.CompatOpCount(k) ||
				!slices.Equal(got.CompatOps(k), want.CompatOps(k)) {
				t.Logf("seed %d: kind %d covers different operations", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestVictimTermsMaintainedQuick: after random deletions, on graphs and
// on clones taken along the way and refined on independently, the
// maintained victim-metric terms equal their definitions recomputed
// from the H edges: KindEdgeCount(o) = Σ_{r∈H(o)} |O(r)| and
// MaxLatencyKindCount(o) = |{r ∈ H(o) : ℓ(r) = L_o}|.
func TestVictimTermsMaintainedQuick(t *testing.T) {
	lib := model.Default()
	check := func(g *Graph) bool {
		for o := 0; o < g.D.N(); o++ {
			id := dfg.OpID(o)
			den, del := 0, 0
			for _, ki := range g.CompatKinds(id) {
				den += g.CompatOpCount(ki)
				if g.KindLatency(ki) == g.UpperLatency(id) {
					del++
				}
			}
			if g.KindEdgeCount(id) != den || g.MaxLatencyKindCount(id) != del {
				t.Logf("op %d: maintained (%d, %d), recomputed (%d, %d)",
					o, g.MaxLatencyKindCount(id), g.KindEdgeCount(id), del, den)
				return false
			}
		}
		return true
	}
	f := func(seed int64, n uint8) bool {
		d, err := tgff.Generate(tgff.Config{N: 4 + int(n%60), Seed: seed})
		if err != nil {
			return false
		}
		g, err := Build(d, lib)
		if err != nil {
			return false
		}
		rnd := rand.New(rand.NewSource(seed ^ 0xde1e7e))
		graphs := []*Graph{g}
		for step := 0; step < 3*d.N(); step++ {
			if !check(graphs[rnd.Intn(len(graphs))]) {
				return false
			}
			switch w := graphs[rnd.Intn(len(graphs))]; rnd.Intn(8) {
			case 0:
				graphs = append(graphs, w.Clone())
			case 1:
				c := w.Clone()
				c.FullyRefine()
				graphs = append(graphs, c)
			default:
				w.DeleteMaxLatencyEdges(dfg.OpID(rnd.Intn(d.N())))
			}
		}
		for _, w := range graphs {
			if !check(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

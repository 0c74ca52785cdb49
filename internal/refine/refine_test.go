package refine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bind"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tgff"
	"repro/internal/wcg"
)

func setup(t *testing.T, d *dfg.Graph) (*wcg.Graph, []int, *bind.Binding) {
	t.Helper()
	g, err := wcg.Build(d, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.List(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := bind.SelectStats(g, r.Start, bind.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, r.Start, b
}

func TestBoundCriticalPathChain(t *testing.T) {
	// Pure chain: everything is critical.
	d := dfg.New()
	var prev dfg.OpID = -1
	for i := 0; i < 4; i++ {
		o := d.AddOp("", model.Add, model.AddSig(8))
		if prev >= 0 {
			d.AddDep(prev, o)
		}
		prev = o
	}
	g, start, b := setup(t, d)
	qb := BoundCriticalPath(g, start, b)
	if len(qb) != 4 {
		t.Fatalf("Q_b = %v, want all 4 ops", qb)
	}
}

func TestBoundCriticalPathIncludesResourceSerialization(t *testing.T) {
	// Two independent multiplies bound to one resource back-to-back:
	// precedence alone makes each op alone critical only through its own
	// path, but the S_b edge serializes them, making both critical.
	d := dfg.New()
	a := d.AddOp("a", model.Mul, model.Sig(8, 8))
	bop := d.AddOp("b", model.Mul, model.Sig(8, 8))
	// Force sequential schedule via a dependency chain through c, then
	// remove ambiguity: use a diamond-free construction instead —
	// schedule manually.
	g, err := wcg.Build(d, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	start := []int{0, 2}
	binding := &bind.Binding{
		Cliques:  []bind.Clique{{Ops: []dfg.OpID{a, bop}, Kind: firstMulKind(g)}},
		CliqueOf: []int{0, 0},
	}
	qb := BoundCriticalPath(g, start, binding)
	if len(qb) != 2 {
		t.Fatalf("Q_b = %v, want both ops via S_b edge", qb)
	}
}

func firstMulKind(g *wcg.Graph) int {
	for ki, k := range g.Kinds {
		if k.Class == model.Mul {
			return ki
		}
	}
	panic("no mul kind")
}

func TestBoundCriticalPathGapBreaksEdge(t *testing.T) {
	// Same two ops on one resource but with a gap: no S_b edge, so each
	// is its own component; both are still "critical" only if tied for
	// the longest path. With a gap the later op alone determines the
	// makespan through... actually with latencies 2 and starts 0 and 10,
	// the augmented ASAP of both is 0, ALAP of op b is ms-2. Only ops on
	// the longest augmented path are critical.
	d := dfg.New()
	a := d.AddOp("a", model.Mul, model.Sig(8, 8))
	bop := d.AddOp("b", model.Mul, model.Sig(8, 8))
	_ = a
	g, err := wcg.Build(d, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	start := []int{0, 10}
	binding := &bind.Binding{
		Cliques:  []bind.Clique{{Ops: []dfg.OpID{0, 1}, Kind: firstMulKind(g)}},
		CliqueOf: []int{0, 0},
	}
	qb := BoundCriticalPath(g, start, binding)
	// Without the S_b edge both ops have augmented ASAP 0 and latency 2,
	// so both are critical (both lie on a longest path of length 2).
	if len(qb) != 2 {
		t.Fatalf("Q_b = %v", qb)
	}
	_ = bop
}

func TestCandidatesFilterByDeadline(t *testing.T) {
	d := dfg.New()
	o1 := d.AddOp("", model.Mul, model.Sig(25, 25)) // L = 7
	o2 := d.AddOp("", model.Mul, model.Sig(20, 18)) // L = 7 via 25x25
	d.AddDep(o1, o2)
	g, start, b := setup(t, d)
	qb := BoundCriticalPath(g, start, b)
	// Makespan is 14; λ = 8 admits only the first op (0 + 7 <= 8).
	w := Candidates(g, start, qb, 8)
	if len(w) != 1 || w[0] != o1 {
		t.Fatalf("W = %v, want [%d]", w, o1)
	}
	// λ = 14 admits both.
	if w := Candidates(g, start, qb, 14); len(w) != 2 {
		t.Fatalf("W = %v, want both ops", w)
	}
}

func TestChooseVictimPrefersSmallestProportion(t *testing.T) {
	// o2 (20x18) is compatible with {20x18, 25x25}: deleting its max
	// edge loses 1 of the edges incident on its kinds. o1 (25x25) is
	// irreducible. The victim must be o2.
	d := dfg.New()
	o1 := d.AddOp("", model.Mul, model.Sig(25, 25))
	o2 := d.AddOp("", model.Mul, model.Sig(20, 18))
	d.AddDep(o1, o2)
	g, _, b := setup(t, d)
	victim, ok := ChooseVictim(g, b, []dfg.OpID{o1, o2})
	if !ok || victim != o2 {
		t.Fatalf("victim = %d ok=%v, want %d", victim, ok, o2)
	}
}

func TestChooseVictimNoneReducible(t *testing.T) {
	d := dfg.New()
	o := d.AddOp("", model.Add, model.AddSig(8))
	g, _, b := setup(t, d)
	if _, ok := ChooseVictim(g, b, []dfg.OpID{o}); ok {
		t.Fatal("irreducible op chosen as victim")
	}
}

func TestStepReducesUpperBound(t *testing.T) {
	d := dfg.New()
	o1 := d.AddOp("", model.Mul, model.Sig(25, 25))
	o2 := d.AddOp("", model.Mul, model.Sig(20, 18))
	d.AddDep(o1, o2)
	g, start, b := setup(t, d)
	before := g.UpperLatency(o2)
	victim, ok := stepOnce(g, start, b, 12)
	if !ok {
		t.Fatal("no refinement performed")
	}
	if victim != o2 {
		t.Fatalf("victim = %d, want %d", victim, o2)
	}
	if g.UpperLatency(o2) >= before {
		t.Fatalf("upper bound not reduced: %d -> %d", before, g.UpperLatency(o2))
	}
}

func TestStepFallsBackAndEventuallyFails(t *testing.T) {
	// All ops single-kind: nothing reducible anywhere, the step refines nothing.
	d := dfg.New()
	d.AddOp("", model.Add, model.AddSig(8))
	d.AddOp("", model.Add, model.AddSig(8))
	g, start, b := setup(t, d)
	if _, ok := stepOnce(g, start, b, 1); ok {
		t.Fatal("refined an irreducible problem")
	}
}

func TestRefinementTerminates(t *testing.T) {
	// Repeated steps must terminate (H edges strictly decrease).
	rnd := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		d := randomDAG(rnd, 1+rnd.Intn(14))
		g, start, b := setup(t, d)
		steps := 0
		for {
			edges := g.NumHEdges()
			if _, ok := stepOnce(g, start, b, 0); !ok {
				break
			}
			if g.NumHEdges() >= edges {
				t.Fatal("step did not delete any H edge")
			}
			steps++
			if steps > 10000 {
				t.Fatal("refinement did not terminate")
			}
		}
		// After exhaustion every op is irreducible.
		for o := 0; o < d.N(); o++ {
			if g.Reducible(dfg.OpID(o)) {
				t.Fatalf("op %d still reducible after exhaustion", o)
			}
		}
	}
}

func TestLessProportion(t *testing.T) {
	// 1/4 < 1/2.
	if !lessProportion(1, 4, false, 1, 2, false) {
		t.Error("1/4 must beat 1/2")
	}
	if lessProportion(1, 2, false, 1, 4, false) {
		t.Error("1/2 must not beat 1/4")
	}
	// Equal proportion: favoured wins.
	if !lessProportion(1, 3, true, 1, 3, false) {
		t.Error("favoured must win ties")
	}
	if lessProportion(1, 3, false, 1, 3, true) {
		t.Error("unfavoured must lose ties")
	}
}

func randomDAG(rnd *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	for i := 0; i < n; i++ {
		if rnd.Intn(2) == 0 {
			g.AddOp("", model.Add, model.AddSig(4+rnd.Intn(20)))
		} else {
			g.AddOp("", model.Mul, model.Sig(4+rnd.Intn(20), 4+rnd.Intn(20)))
		}
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 2; k++ {
			if rnd.Intn(3) == 0 {
				g.AddDep(dfg.OpID(rnd.Intn(i)), dfg.OpID(i))
			}
		}
	}
	return g
}

// chooseVictimReference is ChooseVictim as it was before the
// compatibility graph maintained the metric's terms: both re-summed
// over o's H edges on every call.
func chooseVictimReference(g *wcg.Graph, b *bind.Binding, cands []dfg.OpID) (dfg.OpID, bool) {
	best := dfg.OpID(-1)
	var bestDel, bestDen int
	var bestFavoured bool
	for _, o := range cands {
		if !g.Reducible(o) {
			continue
		}
		lmax := g.UpperLatency(o)
		del, den := 0, 0
		for _, ki := range g.CompatKinds(o) {
			den += g.CompatOpCount(ki)
			if g.KindLatency(ki) == lmax {
				del++
			}
		}
		favoured := b != nil && b.BoundLatency(g, o) < lmax
		if best < 0 || lessProportion(del, den, favoured, bestDel, bestDen, bestFavoured) {
			best, bestDel, bestDen, bestFavoured = o, del, den, favoured
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// TestChooseVictimMatchesReference: along refinement sequences that
// delete whatever ChooseVictim picks, on random candidate subsets with
// and without a binding, ChooseVictim picks the reference's victim.
func TestChooseVictimMatchesReference(t *testing.T) {
	lib := model.Default()
	picks := 0
	for _, n := range []int{8, 40, 200} {
		for seed := int64(1); seed <= 4; seed++ {
			d, err := tgff.Generate(tgff.Config{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			g, err := wcg.Build(d, lib)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sched.List(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := bind.SelectStats(g, r.Start, bind.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(seed))
			for {
				var cands []dfg.OpID
				for o := 0; o < n; o++ {
					if rnd.Intn(3) > 0 {
						cands = append(cands, dfg.OpID(o))
					}
				}
				bb := b
				if rnd.Intn(2) == 0 {
					bb = nil
				}
				got, gotOK := ChooseVictim(g, bb, cands)
				want, wantOK := chooseVictimReference(g, bb, cands)
				if got != want || gotOK != wantOK {
					t.Fatalf("N=%d seed=%d: ChooseVictim = %d, %t; reference %d, %t", n, seed, got, gotOK, want, wantOK)
				}
				if !gotOK {
					// Let the sequence go on while anything is reducible.
					all := make([]dfg.OpID, n)
					for i := range all {
						all[i] = dfg.OpID(i)
					}
					if got, gotOK = ChooseVictim(g, nil, all); !gotOK {
						break
					}
				}
				picks++
				g.DeleteMaxLatencyEdges(got)
			}
		}
	}
	if picks == 0 {
		t.Fatal("no victim was ever chosen")
	}
}

// TestVictimQueueMatchesChooseVictim: StepAll with the lazy queue refines
// exactly the victims ChooseVictim(g, nil, all) picks one at a time, while
// the queue is repeatedly bypassed — StepBatch rounds and direct
// deletions on the same graph, and alternation between the graph and a
// clone. A wrong pick surfaces as H edges that differ from the reference
// run's. The random graphs are join-closed, where refining an operation
// practically never lowers its own del/den; undercutGraph is built so
// that a bypassing deletion does, and only a queue that reloads after it
// picks right.
func TestVictimQueueMatchesChooseVictim(t *testing.T) {
	lib := model.Default()
	var picks, bypassed int
	// check runs StepAll(w, nil, k) against the reference on a clone.
	check := func(name string, s *Scratch, w *wcg.Graph, k int) {
		t.Helper()
		all := make([]dfg.OpID, w.D.N())
		for i := range all {
			all[i] = dfg.OpID(i)
		}
		ref := w.Clone()
		want := 0
		for ; want < k; want++ {
			o, ok := ChooseVictim(ref, nil, all)
			if !ok {
				break
			}
			ref.DeleteMaxLatencyEdges(o)
		}
		got := s.StepAll(w, nil, k)
		if got != want || !sameEdges(w, ref) {
			t.Fatalf("%s: StepAll(k=%d) refined %d, reference %d; same edges %t", name, k, got, want, sameEdges(w, ref))
		}
		picks += got
	}

	g, x := undercutGraph(t)
	var s Scratch
	check("undercut", &s, g, 1)
	g.DeleteMaxLatencyEdges(x)
	check("undercut after a bypassing deletion", &s, g, 1)

	for _, n := range []int{8, 40, 200} {
		for seed := int64(1); seed <= 4; seed++ {
			d, err := tgff.Generate(tgff.Config{N: n, Seed: seed * 31})
			if err != nil {
				t.Fatal(err)
			}
			g, err := wcg.Build(d, lib)
			if err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(seed + int64(n)))
			pair := [2]*wcg.Graph{g, g.Clone()}
			var s Scratch
			for round := 0; !nothingReducible(pair[0]) || !nothingReducible(pair[1]); round++ {
				w := pair[rnd.Intn(2)]
				switch rnd.Intn(6) {
				case 0:
					r, err := sched.List(w, nil)
					if err != nil {
						t.Fatal(err)
					}
					b, _, err := bind.SelectStats(w, r.Start, bind.Options{})
					if err != nil {
						t.Fatal(err)
					}
					// λ just below the makespan, as in a λ-violation
					// round.
					bypassed += s.StepBatch(w, r.Start, b, r.Makespan-1, ChooseVictim, 1+rnd.Intn(3))
				case 1:
					if w.DeleteMaxLatencyEdges(dfg.OpID(rnd.Intn(n))) > 0 {
						bypassed++
					}
				}
				check(fmt.Sprintf("N=%d seed=%d round=%d", n, seed, round), &s, w, 1+rnd.Intn(4))
			}
		}
	}
	t.Logf("%d queue picks, %d refinements behind the queue's back", picks, bypassed)
	if bypassed == 0 {
		t.Fatal("no refinement bypassed the queue")
	}
}

// undercutGraph returns a graph, and an operation x of it, where
// refining x lowers x's del/den below every other key. Multipliers 4x4
// (x among them) may run on 4x4 (latency 1), 8x8 (2), 20x4 and 19x5 (3):
// del/den is 2/22, and 1/16 once the two slowest kinds are gone. The
// only kind of ten 8x8 multipliers is 8x8. Adders on a library where
// width sets latency share nothing with them: four 4-bit adders may run
// on add 4 (latency 1) and add 8 (2), at 1/13, and five 8-bit adders
// only on add 8. The first victim is an adder; the others then read 1/12.
func undercutGraph(t *testing.T) (*wcg.Graph, dfg.OpID) {
	t.Helper()
	d := dfg.New()
	x := d.AddOp("x", model.Mul, model.Sig(4, 4))
	for i := 0; i < 2; i++ {
		d.AddOp("", model.Mul, model.Sig(4, 4))
	}
	for i := 0; i < 10; i++ {
		d.AddOp("", model.Mul, model.Sig(8, 8))
	}
	for i := 0; i < 4; i++ {
		d.AddOp("", model.Add, model.AddSig(4))
	}
	for i := 0; i < 5; i++ {
		d.AddOp("", model.Add, model.AddSig(8))
	}
	def := model.Default()
	lib := &model.Library{
		Latency: func(k model.Kind) int {
			if k.Class == model.Add {
				return (k.Sig.Hi + 3) / 4
			}
			return def.Latency(k)
		},
		Area: def.Area,
	}
	kinds := []model.Kind{
		{Class: model.Mul, Sig: model.Sig(4, 4)},
		{Class: model.Mul, Sig: model.Sig(8, 8)},
		{Class: model.Mul, Sig: model.Sig(20, 4)},
		{Class: model.Mul, Sig: model.Sig(19, 5)},
		{Class: model.Add, Sig: model.AddSig(4)},
		{Class: model.Add, Sig: model.AddSig(8)},
	}
	g, err := wcg.BuildWithKinds(d, lib, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return g, x
}

// sameEdges reports whether a and b have the same H edges.
func sameEdges(a, b *wcg.Graph) bool {
	if a.NumHEdges() != b.NumHEdges() {
		return false
	}
	for o := 0; o < a.D.N(); o++ {
		if !slices.Equal(a.CompatKinds(dfg.OpID(o)), b.CompatKinds(dfg.OpID(o))) {
			return false
		}
	}
	return true
}

// nothingReducible reports whether g is at the refinement fixpoint.
func nothingReducible(g *wcg.Graph) bool {
	for o := 0; o < g.D.N(); o++ {
		if g.Reducible(dfg.OpID(o)) {
			return false
		}
	}
	return true
}

// stepOnce is the paper's refinement step, StepBatch with k=1, reporting
// the victim.
func stepOnce(g *wcg.Graph, start []int, b *bind.Binding, lambda int) (dfg.OpID, bool) {
	o, done := new(Scratch).step(g, start, b, lambda, ChooseVictim, 1)
	return o, done > 0
}

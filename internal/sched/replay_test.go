package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/tgff"
	"repro/internal/wcg"
)

// TestSchedulingSetReplayQuick: one Scratch computes scheduling sets on a
// TGFF graph and on its clones, in random alternation, while random
// deletions shrink whichever graph it is handed; now and then the clone is
// replaced by a fresh clone or by the refinement fixpoint of one. Every
// set equals the one a fresh Scratch computes, so the replayed greedy is
// the greedy. The replay must both keep traces and revise them, or the
// test does not exercise it.
func TestSchedulingSetReplayQuick(t *testing.T) {
	lib := model.Default()
	var replays, revised int
	f := func(seed int64, n uint8) bool {
		d, err := tgff.Generate(tgff.Config{N: 4 + int(n%120), Seed: seed})
		if err != nil {
			t.Log(err)
			return false
		}
		g, err := wcg.Build(d, lib)
		if err != nil {
			t.Log(err)
			return false
		}
		rnd := rand.New(rand.NewSource(seed ^ 0x5e7))
		pair := [2]*wcg.Graph{g, g.Clone()}
		var s Scratch
		for step := 0; step < 2*d.N(); step++ {
			switch rnd.Intn(8) {
			case 0:
				pair[1] = pair[0].Clone()
			case 1:
				pair[1] = pair[0].Clone()
				pair[1].FullyRefine()
			}
			w := pair[rnd.Intn(2)]
			refineRandomly(w, rnd, rnd.Intn(4))
			replay, before := s.setG == w, slices.Clone(s.setTrace)
			got := s.SchedulingSet(w)
			if want := new(Scratch).SchedulingSet(w); !slices.Equal(got, want) {
				t.Logf("N=%d seed=%d step=%d: replayed set %v, fresh %v", d.N(), seed, step, got, want)
				return false
			}
			if replay {
				replays++
				if !slices.Equal(before, s.setTrace) {
					revised++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d replays, %d revised a trace", replays, revised)
	if revised == 0 || revised == replays {
		t.Fatalf("want replays that keep and that revise their trace: %d replays, %d revised", replays, revised)
	}
}

package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
	"repro/internal/wcg"
)

// classes are the hardware classes in a fixed order, so that random
// limits do not depend on map iteration order.
var classes = []model.OpType{model.Add, model.Mul}

// TestTryAgreesWithList: on TGFF graphs refined by a random prefix of
// deletions up to the refinement fixpoint, under random limits and under
// the tightest limits List still meets, Try returns List's exact Result
// whenever List schedules, and fails with
// ErrResourceInfeasible whenever List fails. Some of those failures
// must be Try's early exit (a plain ErrResourceInfeasible), or the doom
// certificate is never exercised.
func TestTryAgreesWithList(t *testing.T) {
	lib := model.Default()
	var s Scratch // shared by every call, as in a ladder
	var ok, failed, early int
	for _, n := range []int{12, 50, 200, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			d, err := tgff.Generate(tgff.Config{N: n, Seed: seed * 7907})
			if err != nil {
				t.Fatal(err)
			}
			base, err := wcg.Build(d, lib)
			if err != nil {
				t.Fatal(err)
			}
			count := make(map[model.OpType]int)
			for _, o := range d.Ops() {
				count[o.Spec.Type.HardwareClass()]++
			}
			full := base.Clone().FullyRefine()
			rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
			for trial := 0; trial < 16; trial++ {
				g := base.Clone()
				refineRandomly(g, rnd, rnd.Intn(full+1))
				limits := make(Limits)
				if trial%2 == 0 {
					for _, y := range classes {
						if c, ok := count[y]; ok && rnd.Intn(5) > 0 { // else unconstrained
							limits[y] = 1 + rnd.Intn(max(2, c/2))
						}
					}
				} else {
					limits = tightest(&s, g, count)
				}
				name := fmt.Sprintf("N=%d/seed=%d/trial=%d/limits=%v", n, seed, trial, limits)
				want, wantErr := s.List(g, limits)
				got, gotErr := s.Try(g, limits)
				switch {
				case wantErr == nil:
					ok++
					if gotErr != nil {
						t.Fatalf("%s: List schedules, Try fails: %v", name, gotErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Try's Result differs from List's", name)
					}
				case errors.Is(wantErr, ErrResourceInfeasible):
					failed++
					if !errors.Is(gotErr, ErrResourceInfeasible) {
						t.Fatalf("%s: List fails (%v), Try returns %v", name, wantErr, gotErr)
					}
					if gotErr == ErrResourceInfeasible {
						early++
					}
				default:
					t.Fatalf("%s: List: %v", name, wantErr)
				}
			}
		}
	}
	t.Logf("%d schedules, %d failures, %d early exits", ok, failed, early)
	if ok == 0 || failed == 0 || early == 0 {
		t.Fatalf("want schedules, failures and early exits: %d, %d, %d", ok, failed, early)
	}
}

// tightest returns the limits at the edge of List's feasibility on g:
// class by class, in class order, the smallest limit under which List
// still schedules given the limits already chosen. A schedule there
// drives class sums up to their limits, where an unsound certificate
// would fire.
func tightest(s *Scratch, g *wcg.Graph, count map[model.OpType]int) Limits {
	limits := make(Limits)
	for _, y := range classes {
		c, ok := count[y]
		if !ok {
			continue
		}
		lo, hi := 1, c // List schedules at hi: one resource per operation
		for lo < hi {
			limits[y] = (lo + hi) / 2
			if _, err := s.List(g, limits); err == nil {
				hi = limits[y]
			} else {
				lo = limits[y] + 1
			}
		}
		limits[y] = hi
	}
	return limits
}

// refineRandomly applies k deletions to randomly chosen reducible
// operations of g, fewer if g reaches the fixpoint first.
func refineRandomly(g *wcg.Graph, rnd *rand.Rand, k int) {
	var open []dfg.OpID
	for ; k > 0; k-- {
		open = open[:0]
		for o := 0; o < g.D.N(); o++ {
			if g.Reducible(dfg.OpID(o)) {
				open = append(open, dfg.OpID(o))
			}
		}
		if len(open) == 0 {
			return
		}
		g.DeleteMaxLatencyEdges(open[rnd.Intn(len(open))])
	}
}

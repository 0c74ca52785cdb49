package twostage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tgff"
	"repro/internal/wcg"
)

// listSchedule is a reference Eqn. 2 list scheduler at native latencies:
// a per-step rescan of the ready set, placement by (longest path to a
// sink desc, ID asc), and per-class usage counted per control step. It
// is the oracle stage 1's sched.ListEqn2 schedule must equal.
func listSchedule(d *dfg.Graph, lat dfg.Latencies, limits map[model.OpType]int) ([]int, int, error) {
	n := d.N()
	order, err := d.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	prio := make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0
		for _, s := range d.Succ(id) {
			best = max(best, prio[s])
		}
		prio[id] = best + lat(id)
	}

	start := make([]int, n)
	finish := make([]int, n)
	scheduled := make([]bool, n)
	used := make(map[model.OpType][]int)
	makespan, nDone, t := 0, 0, 0
	for nDone < n {
		var ready []dfg.OpID
		for i := 0; i < n; i++ {
			if scheduled[i] {
				continue
			}
			ok := true
			for _, p := range d.Pred(dfg.OpID(i)) {
				if !scheduled[p] || finish[p] > t {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, dfg.OpID(i))
			}
		}
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			if prio[a] != prio[b] {
				return prio[a] > prio[b]
			}
			return a < b
		})
		for _, o := range ready {
			y := d.Op(o).Spec.Type.HardwareClass()
			limit, constrained := limits[y]
			l := lat(o)
			if constrained {
				u := used[y]
				fits := true
				for s := t; s < t+l; s++ {
					if s < len(u) && u[s]+1 > limit {
						fits = false
						break
					}
				}
				if !fits {
					continue
				}
				for t+l > len(u) {
					u = append(u, 0)
				}
				for s := t; s < t+l; s++ {
					u[s]++
				}
				used[y] = u
			}
			scheduled[o] = true
			start[o] = t
			finish[o] = t + l
			makespan = max(makespan, finish[o])
			nDone++
		}
		next := -1
		for i := 0; i < n; i++ {
			if scheduled[i] && finish[i] > t && (next < 0 || finish[i] < next) {
				next = finish[i]
			}
		}
		if next < 0 {
			next = t + 1
		}
		t = next
	}
	return start, makespan, nil
}

// TestStage1ScheduleMatchesReference: on the fully refined own-kinds
// compatibility graph stage 1 schedules on, sched.ListEqn2 places every
// operation where the reference scheduler does, with the same makespan,
// for random per-class limits of 1–3. TGFF N 1–60 × 20 seeds × uniform
// and bimodal widths; -short keeps every fifth size and five seeds.
func TestStage1ScheduleMatchesReference(t *testing.T) {
	lib := model.Default()
	sizeStep, seeds := 1, 20
	if testing.Short() {
		sizeStep, seeds = 5, 5
	}
	rng := rand.New(rand.NewSource(2001))
	trials := 0
	for n := 1; n <= 60; n += sizeStep {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			for _, dist := range []tgff.WidthDist{tgff.WidthUniform, tgff.WidthBimodal} {
				d, err := tgff.Generate(tgff.Config{N: n, Seed: seed, Dist: dist})
				if err != nil {
					t.Fatal(err)
				}
				g, err := wcg.BuildWithKinds(d, lib, wcg.OwnKinds(d))
				if err != nil {
					t.Fatal(err)
				}
				g.FullyRefine()
				lat := d.MinLatencies(lib)
				for rep := 0; rep < 8; rep++ {
					limits := sched.Limits{}
					for _, o := range d.Ops() {
						if y := o.Spec.Type.HardwareClass(); limits[y] == 0 {
							limits[y] = 1 + rng.Intn(3)
						}
					}
					name := fmt.Sprintf("N=%d/seed=%d/dist=%d/limits=%v", n, seed, dist, limits)
					want, wantM, err := listSchedule(d, lat, limits)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					r, err := sched.ListEqn2(g, limits)
					if err != nil {
						t.Fatalf("%s: ListEqn2: %v", name, err)
					}
					if r.Makespan != wantM || fmt.Sprint(r.Start) != fmt.Sprint(want) {
						t.Fatalf("%s:\n ListEqn2 %v makespan %d\nreference %v makespan %d", name, r.Start, r.Makespan, want, wantM)
					}
					trials++
				}
			}
		}
	}
	t.Logf("%d trials", trials)
}

package main

import (
	"math"
	"slices"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{15, 20, 35, 40, 50}) {
		t.Error("percentile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {1010, 99}, {20000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule itself: at least ten samples beyond the chosen rank, once
	// there are enough samples for the median to leave ten.
	for n := 20; n < 3000; n += 7 {
		p := tailPercentile(n)
		if beyond := n - int(math.Ceil(p/100*float64(n))); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "solve", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a: 10..50 covered once
		{Name: "b", Start: 90, End: 120, Parent: 0}, // sticks out: only 90..100 covers
		{Name: "c", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]int64{"solve": 100 - 40 - 10, "a": 30 - 5, "b": 20 + 30, "c": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestZipfSequenceDeterministic(t *testing.T) {
	a := zipfSequence(7, 100, 500)
	b := zipfSequence(7, 100, 500)
	c := zipfSequence(8, 100, 500)
	if !slices.EqualFunc(a, b, slices.Equal[[]int]) {
		t.Fatal("same seed, different sequence")
	}
	if slices.EqualFunc(a, c, slices.Equal[[]int]) {
		t.Fatal("different seeds, same sequence")
	}
	counts := make([]int, 100)
	batches := 0
	for _, r := range a {
		if len(r) > 1 {
			batches++
		}
		for _, i := range r {
			counts[i]++
		}
	}
	if counts[0] <= counts[50] || batches == 0 || batches > 100 {
		t.Fatalf("not a Zipf mix with a tenth batches: head %d, middle %d, batches %d", counts[0], counts[50], batches)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clearly faster", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, false, 0.1, "improved"},
		{"same", parent, false, 0.1, "no worse"},
		{"slower beyond bound", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, false, 0.1, "regressed"},
		{"slower within bound", []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}, false, 0.1, "no worse"},
		{"higher is better", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, 0.1, "improved"},
		{"spread wider than bound", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, false, 0.001, "unresolved"},
		{"eight of ten wins", []float64{90, 91, 89, 90, 92, 88, 90, 91, 101, 103}, false, 0.1, "no worse"},
		{"no bound, worse", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, false, -1, "worse"},
	} {
		if got, _, _ := verdict(parent, c.change, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

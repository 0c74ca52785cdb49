package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailLadder is the set of percentiles a tail latency is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, so a tail figure never rests on
// a handful of samples. It falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// meanOfMedians averages the medians of the series: a workload's timing
// over its parts, each part's the median over its rounds.
func meanOfMedians(series [][]float64) float64 {
	var sum float64
	for _, xs := range series {
		sum += median(xs)
	}
	return sum / float64(len(series))
}

package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// sorting xs in place; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so the spreads printed here match a reader's own check.
// xs must hold at least two values; it is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n, m := 4, len(xs)+1
	var cut [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(xs)-1)
		delta := i*m - j*n
		cut[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / float64(n)
	}
	return cut[0], cut[1], cut[2]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

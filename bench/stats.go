package main

import "sort"

// carries reports whether n samples can carry the pct-th percentile: at
// least ten of them must lie beyond it, the rule that keeps a reported
// tail from being one or two outliers. The median is always carried.
func carries(n, pct int) bool {
	return pct <= 50 || n-rank(n, pct) >= 10
}

// rank is the nearest-rank position (1-based) of the pct-th percentile
// among n ascending samples: the smallest rank with at least pct% of the
// samples at or below it.
func rank(n, pct int) int {
	return max(1, (n*pct+99)/100)
}

// percentileSorted returns the pct-th percentile of an ascending sample
// by the nearest-rank rule.
func percentileSorted(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted), rank(len(sorted), pct))-1]
}

// median returns the middle of vs (mean of the two middles for an even
// count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method) — the driver's
// spread rule, reproduced so -selfcheck applies the same test.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		// position k·(n+1)/4, 1-based, clamped to 1..n-1, then linear
		// interpolation (extrapolation when clamped), as CPython does
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

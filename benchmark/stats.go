package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// it sorts in place; 0 for an empty set.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := rank(len(xs), p) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// rank is the nearest-rank position (1-based) of the p-quantile among n
// sorted samples. The small epsilon keeps 0.9 × 100 at rank 90, which
// floating point would otherwise round up to 91.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n) - 1e-9)) }

// median is the midpoint median (mean of the two middle values for an
// even count), the form Python's statistics.median uses. The estimators
// are the benchmark's own rather than internal/stats': the ruler must not
// move when the program it measures is changed.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (exclusive method); with fewer than
// two values both are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Rank k(n+1)/4, clamped to the data before the interpolation
		// weight is taken, exactly as the Python implementation does.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// supported is the reporting rule for tail percentiles: p is reported
// over n samples only when at least ten of them lie beyond it. So 105
// pooled epochs carry a p90 and no p99, and a dozen epochs carry no tail
// at all. The sample count is printed beside every percentile.
func supported(n int, p float64) bool { return n-rank(n, p) >= 10 }

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

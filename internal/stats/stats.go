// Package stats provides the small statistical toolkit the experiments
// need: quantiles, boxplot summaries (Figure 7), dispersion metrics for
// the shortage/surplus comparison, histograms, and percentile ranks.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty data.
var ErrEmpty = errors.New("stats: empty data")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d) // rounded before the add (make fma-check)
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for empty input.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (the "type 7" estimator used by R
// and NumPy). It returns 0 for empty input and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	// Each product is rounded before the add (make fma-check).
	pos := float64(q * float64(len(s)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Boxplot holds the Tukey boxplot statistics used to render Figure 7:
// quartiles, whiskers at the most extreme data points within 1.5·IQR of
// the box, and the outliers beyond them.
type Boxplot struct {
	Q1, Median, Q3          float64
	LowWhisker, HighWhisker float64
	Outliers                []float64
}

// NewBoxplot computes Tukey boxplot statistics for xs.
func NewBoxplot(xs []float64) (Boxplot, error) {
	if len(xs) == 0 {
		return Boxplot{}, ErrEmpty
	}
	b := Boxplot{
		Q1:     Quantile(xs, 0.25),
		Median: Median(xs),
		Q3:     Quantile(xs, 0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - float64(1.5*iqr) // rounded before the add (make fma-check)
	hiFence := b.Q3 + float64(1.5*iqr)
	b.LowWhisker, b.HighWhisker = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.LowWhisker {
			b.LowWhisker = x
		}
		if x > b.HighWhisker {
			b.HighWhisker = x
		}
	}
	// All points can be outliers only when IQR is degenerate; fall back to
	// the box itself so the whiskers stay meaningful.
	if math.IsInf(b.LowWhisker, 1) {
		b.LowWhisker, b.HighWhisker = b.Q1, b.Q3
	}
	sort.Float64s(b.Outliers)
	return b, nil
}

// CoefficientOfVariation returns StdDev/Mean, the dimensionless dispersion
// measure used to compare utilization imbalance across allocators. It
// returns 0 when the mean is 0.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// PercentileRank returns the fraction (0–100) of values in population that
// are ≤ x. It is the "utilization percentile" transform used by Figure 7.
func PercentileRank(population []float64, x float64) float64 {
	if len(population) == 0 {
		return 0
	}
	var le int
	for _, v := range population {
		if v <= x {
			le++
		}
	}
	return 100 * float64(le) / float64(len(population))
}

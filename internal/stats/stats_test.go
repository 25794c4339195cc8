package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
		{0.75, 3.25},
		{-1, 1}, // clamped
		{2, 4},  // clamped
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("Quantile of singleton")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
}

func TestBoxplotBasic(t *testing.T) {
	// 1..9 plus an extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Median != 5.5 {
		t.Errorf("Median = %v", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v", b.Outliers)
	}
	if b.HighWhisker != 9 || b.LowWhisker != 1 {
		t.Errorf("whiskers = %v..%v", b.LowWhisker, b.HighWhisker)
	}
	if b.Q3 <= b.Q1 {
		t.Errorf("quartiles = %v..%v", b.Q1, b.Q3)
	}
}

func TestBoxplotDegenerate(t *testing.T) {
	b, err := NewBoxplot([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Q1 != 5 || b.Q3 != 5 || b.Median != 5 {
		t.Errorf("box = %+v", b)
	}
	if len(b.Outliers) != 0 {
		t.Errorf("constant data produced outliers: %v", b.Outliers)
	}
	if _, err := NewBoxplot(nil); err != ErrEmpty {
		t.Errorf("NewBoxplot(nil) err = %v", err)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CV(constant) = %v", got)
	}
	if got := CoefficientOfVariation([]float64{0, 0}); got != 0 {
		t.Errorf("CV(zero mean) = %v", got)
	}
	if got := CoefficientOfVariation([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 0.4, 1e-12) {
		t.Errorf("CV = %v", got)
	}
}

func TestPercentileRank(t *testing.T) {
	pop := []float64{10, 20, 30, 40}
	if got := PercentileRank(pop, 25); got != 50 {
		t.Errorf("rank(25) = %v", got)
	}
	if got := PercentileRank(pop, 40); got != 100 {
		t.Errorf("rank(40) = %v", got)
	}
	if got := PercentileRank(pop, 5); got != 0 {
		t.Errorf("rank(5) = %v", got)
	}
	if got := PercentileRank(nil, 5); got != 0 {
		t.Errorf("rank over empty = %v", got)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%50) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return Quantile(xs, 0) == slices.Min(xs) && Quantile(xs, 1) == slices.Max(xs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickBoxplotOrdering(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := int(n%60) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		b, err := NewBoxplot(xs)
		if err != nil {
			return false
		}
		if !(b.Q1 <= b.Median && b.Median <= b.Q3) {
			return false
		}
		// With interpolated quartiles the whisker (an actual data point
		// within the fence) can land inside the box, so only the median
		// bounds it.
		if !(b.LowWhisker <= b.Median && b.Median <= b.HighWhisker) {
			return false
		}
		// Outliers must lie strictly outside the whiskers.
		for _, o := range b.Outliers {
			if o >= b.LowWhisker && o <= b.HighWhisker {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileRankMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pop := make([]float64, 30)
		for i := range pop {
			pop[i] = r.Float64()
		}
		sort.Float64s(pop)
		prev := -1.0
		for x := 0.0; x <= 1.0; x += 0.1 {
			rank := PercentileRank(pop, x)
			if rank < prev {
				return false
			}
			prev = rank
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

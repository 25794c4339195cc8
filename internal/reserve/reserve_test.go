package reserve

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

func TestFigure2CurveValues(t *testing.T) {
	// Spot-check the three curves against their closed forms at the
	// utilizations highlighted in Figure 2.
	cases := []struct {
		name string
		fn   WeightFn
		x    float64
		want float64
	}{
		{"phi1(0)", ExpSteep, 0, math.Exp(-1)},
		{"phi1(0.5)", ExpSteep, 0.5, 1},
		{"phi1(1)", ExpSteep, 1, math.Exp(1)},
		{"phi2(0)", ExpMild, 0, math.Exp(-0.5)},
		{"phi2(0.5)", ExpMild, 0.5, 1},
		{"phi2(1)", ExpMild, 1, math.Exp(0.5)},
		{"phi3(0)", Hyperbolic, 0, 1 / 1.5},
		{"phi3(0.5)", Hyperbolic, 0.5, 1},
		{"phi3(1)", Hyperbolic, 1, 2},
	}
	for _, c := range cases {
		if got := c.fn(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAllPaperCurvesSatisfyProperties(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   WeightFn
	}{
		{"ExpSteep", ExpSteep},
		{"ExpMild", ExpMild},
		{"Hyperbolic", Hyperbolic},
	} {
		p, err := CheckProperties(c.fn, 200)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !p.Satisfied() {
			t.Errorf("%s violates Section IV.A properties: %+v", c.name, p)
		}
	}
}

func TestBoundedRatioValues(t *testing.T) {
	// Property 5: φ(1) = k·φ(0). Check the analytic k for each curve.
	cases := []struct {
		fn   WeightFn
		want float64
	}{
		{ExpSteep, math.Exp(2)},
		{ExpMild, math.Exp(1)},
		{Hyperbolic, 3},
	}
	for i, c := range cases {
		p, err := CheckProperties(c.fn, 100)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.BoundedRatio-c.want) > 1e-9 {
			t.Errorf("case %d: k = %v, want %v", i, p.BoundedRatio, c.want)
		}
	}
}

func TestCheckPropertiesRejectsBadCurves(t *testing.T) {
	decreasing := WeightFn(func(x float64) float64 { return 2 - x })
	p, err := CheckProperties(decreasing, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.Monotonic {
		t.Error("decreasing curve reported monotonic")
	}
	if p.Satisfied() {
		t.Error("decreasing curve reported satisfied")
	}

	flat := WeightFn(func(float64) float64 { return 1 })
	p, err = CheckProperties(flat, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.AboveOneWhenOver {
		t.Error("flat curve cannot exceed 1 when over-utilized")
	}
	if p.CongestionConvex {
		t.Error("flat curve has no congestion convexity")
	}

	if _, err := CheckProperties(flat, 2); err == nil {
		t.Error("n < 4 accepted")
	}
}

func TestPricerPrice(t *testing.T) {
	pr := NewPricer(ExpSteep)

	// At 50% utilization the multiple is exactly 1, so price = cost.
	if got := pr.Price(0.5, 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("price at 50%% = %v", got)
	}
	// Congested pools cost more than idle ones.
	if pr.Price(0.95, 10) <= pr.Price(0.10, 10) {
		t.Error("congested price not above idle price")
	}
	// Utilization clamps.
	if got := pr.Price(-3, 10); math.Abs(got-pr.Price(0, 10)) > 1e-12 {
		t.Errorf("negative utilization not clamped: %v", got)
	}
	if got := pr.Price(7, 10); math.Abs(got-pr.Price(1, 10)) > 1e-12 {
		t.Errorf("excess utilization not clamped: %v", got)
	}
	// Floor applies with zero cost.
	if got := pr.Price(0.5, 0); got != pr.Floor {
		t.Errorf("floor not applied: %v", got)
	}
}

func TestPricerPrices(t *testing.T) {
	reg := resource.NewStandardRegistry("r1")
	pr := NewPricer(ExpSteep)
	util := resource.Vector{0.9, 0.5, 0.1}
	cost := resource.Vector{10, 5, 1}
	p, err := pr.Prices(reg, util, cost)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("got %d prices", len(p))
	}
	if p[0] <= cost[0] {
		t.Errorf("congested pool priced %v, below cost %v", p[0], cost[0])
	}
	if math.Abs(p[1]-cost[1]) > 1e-9 {
		t.Errorf("50%%-utilized pool priced %v, want cost %v", p[1], cost[1])
	}
	if p[2] >= cost[2] {
		t.Errorf("idle pool priced %v, not below cost %v", p[2], cost[2])
	}

	if _, err := pr.Prices(reg, resource.Vector{1}, cost); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCurveSampling(t *testing.T) {
	pts := Curve(ExpSteep, 100)
	if len(pts) != 101 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Utilization != 0 || pts[100].Utilization != 100 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[100])
	}
	if pts[50].Multiple != 1 {
		t.Errorf("midpoint multiple = %v", pts[50].Multiple)
	}
	if got := Curve(ExpSteep, 0); len(got) != 2 {
		t.Errorf("n<1 fallback gave %d points", len(got))
	}
}

// TestFig2CurvesShape is Figure 2's claim: three curves, each through
// 1.0 at ψ = 0.5.
func TestFig2CurvesShape(t *testing.T) {
	curves := Figure2(100)
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 101 {
			t.Errorf("%s: %d points", c.Name, len(c.Points))
		}
		if p := c.Points[50]; p.Utilization != 50 || math.Abs(p.Multiple-1) > 1e-12 {
			t.Errorf("%s: multiple at %v%% = %v, want 1", c.Name, p.Utilization, p.Multiple)
		}
	}
}

func TestQuickReservePriceMonotoneInUtilization(t *testing.T) {
	pr := NewPricer(Hyperbolic)
	prop := func(a, b uint8) bool {
		x := float64(a) / 255
		y := float64(b) / 255
		if x > y {
			x, y = y, x
		}
		return pr.Price(x, 7) <= pr.Price(y, 7)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickReservePriceLinearInCost(t *testing.T) {
	pr := NewPricer(ExpMild)
	pr.Floor = 0
	prop := func(a uint8, c uint8) bool {
		x := float64(a) / 255
		cost := float64(c)
		got := pr.Price(x, 2*cost)
		want := 2 * pr.Price(x, cost)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Properties reports how a weighting function fares against the five
// criteria of Section IV.A, evaluated on a dense grid.
type Properties struct {
	Monotonic          bool    // (1) non-decreasing on [0,1]
	AboveOneWhenOver   bool    // (2) φ > 1 for over-utilized pools (x > 0.5)
	AtMostOneWhenUnder bool    // (3) φ ≤ 1 for under-utilized pools (x ≤ 0.5)
	CongestionConvex   bool    // (4) slope at high utilization ≫ slope at low
	BoundedRatio       float64 // (5) k = φ(1)/φ(0)
}

// overUtilized is the normalized utilization above which a pool counts as
// over-utilized for properties (2) and (3). The paper pivots its curves at
// the midpoint (all three example curves cross 1.0 at x = 0.5).
const overUtilized = 0.5

// CheckProperties evaluates fn on a grid of n+1 points and reports the
// Section IV.A properties. n must be at least 4.
func CheckProperties(fn WeightFn, n int) (Properties, error) {
	if n < 4 {
		return Properties{}, errors.New("reserve: need at least 4 grid points")
	}
	p := Properties{Monotonic: true, AboveOneWhenOver: true, AtMostOneWhenUnder: true}
	prev := math.Inf(-1)
	const tol = 1e-9
	for i := 0; i <= n; i++ {
		x := float64(i) / float64(n)
		v := fn(x)
		if v < prev-tol {
			p.Monotonic = false
		}
		prev = v
		if x > overUtilized && v <= 1 {
			p.AboveOneWhenOver = false
		}
		if x <= overUtilized && v > 1+tol {
			p.AtMostOneWhenUnder = false
		}
	}
	// Property 4: the cost difference between 99% and 80% utilization must
	// significantly exceed the difference between 40% and 15%.
	highDiff := fn(0.99) - fn(0.80)
	lowDiff := fn(0.40) - fn(0.15)
	p.CongestionConvex = highDiff > lowDiff
	// Property 5: φ(100%) = k·φ(0%) for a finite constant k.
	if f0 := fn(0); f0 > 0 {
		p.BoundedRatio = fn(1) / f0
	} else {
		p.BoundedRatio = math.Inf(1)
	}
	return p, nil
}

// Satisfied reports whether all boolean properties hold and the ratio k is
// finite.
func (p Properties) Satisfied() bool {
	return p.Monotonic && p.AboveOneWhenOver && p.AtMostOneWhenUnder &&
		p.CongestionConvex && !math.IsInf(p.BoundedRatio, 0) && p.BoundedRatio > 1
}

// Package reserve implements the congestion-weighted reserve pricing of
// Section IV: the operator sets the clock auction's starting price for each
// resource pool as p̃_r = φ_r(ψ(r))·c(r), where ψ(r) is the pool's current
// (pre-auction) utilization, c(r) its real cost, and φ_r a weighting
// function satisfying the five properties of Section IV.A. High reserve
// prices on congested pools push demand toward under-utilized pools.
package reserve

import (
	"errors"
	"fmt"
	"math"

	"clustermarket/internal/resource"
)

// WeightFn maps a normalized utilization in [0, 1] to a price multiple.
type WeightFn func(utilization float64) float64

// The three example weighting curves plotted in Figure 2 of the paper.
var (
	// ExpSteep is φ₁(x) = exp(2(x − 0.5)).
	ExpSteep WeightFn = func(x float64) float64 { return math.Exp(2 * (x - 0.5)) }
	// ExpMild is φ₂(x) = exp(x − 0.5).
	ExpMild WeightFn = func(x float64) float64 { return math.Exp(x - 0.5) }
	// Hyperbolic is φ₃(x) = 1/(1.5 − x).
	Hyperbolic WeightFn = func(x float64) float64 { return 1 / (1.5 - x) }
)

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

// Pricer computes per-pool reserve prices from utilization and cost.
type Pricer struct {
	// Weight is the weighting function φ applied to every pool.
	Weight WeightFn
	// Floor is a lower bound applied to every reserve price, keeping the
	// clock auction's starting point strictly positive.
	Floor float64
}

// NewPricer returns a Pricer with the given weighting function and
// a small positive floor.
func NewPricer(fn WeightFn) *Pricer {
	return &Pricer{Weight: fn, Floor: 1e-6}
}

// Price returns the reserve price p̃ = φ(ψ)·c for one pool, clamped to the
// floor. Utilization is clamped into [0, 1].
func (pr *Pricer) Price(utilization, cost float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	v := pr.Weight(utilization) * cost
	if v < pr.Floor {
		v = pr.Floor
	}
	return v
}

// Prices computes the full reserve price vector for a registry given
// per-pool utilizations ψ and costs c (both indexed like the registry).
func (pr *Pricer) Prices(reg *resource.Registry, utilization, cost resource.Vector) (resource.Vector, error) {
	if reg.Len() != len(utilization) || reg.Len() != len(cost) {
		return nil, fmt.Errorf("reserve: registry has %d pools, got %d utilizations and %d costs",
			reg.Len(), len(utilization), len(cost))
	}
	out := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		out[i] = pr.Price(utilization[i], cost[i])
	}
	return out, nil
}

// CurvePoint is one sample of a weighting curve.
type CurvePoint struct {
	Utilization float64 // percent, 0–100
	Multiple    float64
}

// Curve samples fn at n+1 evenly spaced utilizations between 0 and 100%,
// producing the series plotted in Figure 2.
func Curve(fn WeightFn, n int) []CurvePoint {
	if n < 1 {
		n = 1
	}
	pts := make([]CurvePoint, 0, n+1)
	for i := 0; i <= n; i++ {
		x := float64(i) / float64(n)
		pts = append(pts, CurvePoint{Utilization: 100 * x, Multiple: fn(x)})
	}
	return pts
}

// NamedCurve is one labelled weighting curve, sampled.
type NamedCurve struct {
	Name   string
	Points []CurvePoint
}

// Figure2 samples the paper's three example weighting curves, n+1
// points each: Figure 2.
func Figure2(n int) []NamedCurve {
	return []NamedCurve{
		{Name: "phi1(x) = exp(2(x-0.5))", Points: Curve(ExpSteep, n)},
		{Name: "phi2(x) = exp(x-0.5)", Points: Curve(ExpMild, n)},
		{Name: "phi3(x) = 1/(1.5-x)", Points: Curve(Hyperbolic, n)},
	}
}

// Package reserve implements the congestion-weighted reserve pricing of
// Section IV: the operator sets the clock auction's starting price for each
// resource pool as p̃_r = φ_r(ψ(r))·c(r), where ψ(r) is the pool's current
// (pre-auction) utilization, c(r) its real cost, and φ_r a weighting
// function satisfying the five properties of Section IV.A. High reserve
// prices on congested pools push demand toward under-utilized pools.
package reserve

import (
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

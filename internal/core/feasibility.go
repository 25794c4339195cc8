package core

import (
	"fmt"
	"math"

	"clustermarket/internal/resource"
)

// SystemViolation describes one violated SYSTEM constraint, identified by
// the constraint number used in Section III.B.
type SystemViolation struct {
	Constraint int
	BidIndex   int // −1 for market-wide constraints
	Detail     string
}

func (v SystemViolation) Error() string {
	who := "market"
	if v.BidIndex >= 0 {
		who = fmt.Sprintf("bid %d", v.BidIndex)
	}
	return fmt.Sprintf("core: SYSTEM constraint (%d) violated by %s: %s", v.Constraint, who, v.Detail)
}

// CheckSystem verifies that a converged auction outcome is a feasible
// point of the SYSTEM optimization from Section III.B:
//
//	(1) x_u ∈ {0 ∪ Q_u}           allocations are whole bundles or nothing
//	                              (ChosenBundle[u] is −1 or indexes Q_u)
//	(2) Σ_u x_u ≤ 0               no shortage is created
//	(3) π_u ≥ x_uᵀp   ∀u ∈ W      winners bid enough
//	(4) x_uᵀp = min_q qᵀp ∀u ∈ W  winners get their cheapest bundle
//	(5) π_u < min_q qᵀp  ∀u ∈ L   losers bid too little
//	(6) p ≥ 0                     prices are nonnegative
//
// eps is the numeric tolerance. All violations are returned, not just the
// first.
func CheckSystem(bids []*Bid, res *Result, eps float64) []SystemViolation {
	var out []SystemViolation

	// (6) prices nonnegative.
	if !res.Prices.AllNonNegative(eps) {
		out = append(out, SystemViolation{6, -1, fmt.Sprintf("prices %v", res.Prices)})
	}

	total := make(resource.Vector, len(res.Prices))
	for i, b := range bids {
		chosen := res.ChosenBundle[i]
		if chosen < 0 {
			// (5) losers must be priced out of every bundle. For scalar
			// limits this is the paper's π_u < min_q qᵀp; for vector
			// limits each bundle is tested against its own limit.
			if j, ok := b.BestAffordable(res.Prices); ok {
				out = append(out, SystemViolation{5, i,
					fmt.Sprintf("bundle %d (cost %g) is affordable within limit %g",
						j, b.Cost(j, res.Prices), b.LimitFor(j))})
			}
			continue
		}
		// (1) the allocation is one of the bid's bundles.
		n := b.NumBundles()
		if chosen >= n {
			out = append(out, SystemViolation{1, i,
				fmt.Sprintf("chosen bundle %d is not one of the bid's %d bundles", chosen, n)})
			continue
		}
		pools, qty := b.Row(chosen)
		for k, pool := range pools {
			total[pool] += qty[k]
		}
		pay := res.Payments[i]
		// (3) winners afford their payment under the governing limit.
		if pay > b.LimitFor(chosen)+eps {
			out = append(out, SystemViolation{3, i,
				fmt.Sprintf("payment %g exceeds limit %g", pay, b.LimitFor(chosen))})
		}
		// Payment must equal the chosen bundle's cost at final prices.
		cost := b.Cost(chosen, res.Prices)
		if math.Abs(pay-cost) > eps {
			out = append(out, SystemViolation{4, i,
				fmt.Sprintf("payment %g differs from chosen bundle cost %g", pay, cost)})
		}
		// (4) winners attain their optimal bundle: no alternative
		// affordable bundle offers strictly more surplus (for scalar
		// limits this is exactly "the cheapest bundle").
		surplus := b.LimitFor(chosen) - cost
		for j := 0; j < n; j++ {
			c := b.Cost(j, res.Prices)
			if c > b.LimitFor(j) {
				continue
			}
			if b.LimitFor(j)-c > surplus+eps {
				out = append(out, SystemViolation{4, i,
					fmt.Sprintf("bundle %d (surplus %g) beats chosen bundle %d (surplus %g)",
						j, b.LimitFor(j)-c, chosen, surplus)})
				break
			}
		}
	}
	// (2) total excess nonpositive.
	if !total.AllNonPositive(eps) {
		out = append(out, SystemViolation{2, -1, fmt.Sprintf("aggregate allocation %v has positive components", total)})
	}
	return out
}

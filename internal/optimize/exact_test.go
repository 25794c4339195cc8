// Package optimize implements the road not taken in the paper: winner
// determination that explicitly maximizes an operator-chosen objective,
// the "alternative algorithms, based explicitly on optimization" of
// Sections III.C.4 and VI. The paper's clock auction deliberately trades
// optimality for uniform prices, fairness, and tractability; this package
// provides the comparison point. No program runs it: the package is test
// files only, an oracle that TestClockVsExact and FuzzClockVsExact hold
// the clock against.
//
// Two objectives from Section III.B are supported:
//
//   - TotalSurplus: Σ_u (π_u − p̃ᵀx_u), the reported willingness to pay
//     minus the reserve-price value of what each user receives. The
//     formula covers sellers too: with q and π negative it reduces to
//     revenue-above-ask.
//   - TotalTradeValue: Σ_u p̃ᵀx_u⁺, the gross reserve-price value of all
//     resources that change hands.
//
// Exact solves the problem by branch and bound for small instances,
// giving tests a true optimum; the tests' own greedy allocator (sellers
// with nonnegative surplus first, then buyers in descending objective
// density) is measured against it.
//
// Outcomes are settled at the reserve prices p̃, which is precisely why
// the paper rejects this family: the result is feasible and
// high-welfare, but the prices no longer separate winners from losers —
// UnfairnessReport quantifies how many SYSTEM fairness constraints the
// optimized allocation violates.
package optimize

import (
	"errors"
	"fmt"
	"math"

	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

// Objective selects what the allocator maximizes.
type Objective int

const (
	// TotalSurplus maximizes Σ (π_u − p̃ᵀx_u).
	TotalSurplus Objective = iota
	// TotalTradeValue maximizes Σ p̃ᵀx_u⁺.
	TotalTradeValue
)

// Result is an optimized allocation settled at reserve prices.
type Result struct {
	// Allocations[i] is the bundle granted to bids[i], nil if rejected.
	Allocations []resource.Vector
	// ChosenBundle[i] is that bundle's index into bids[i], −1 if rejected.
	ChosenBundle []int
	// Payments[i] is p̃ᵀx_i (reserve-price settlement).
	Payments []float64
	// Welfare is the achieved objective value.
	Welfare float64
	// Accepted lists winning bid indices in input order.
	Accepted []int
}

// newResult returns the empty outcome for n bids: everyone rejected.
func newResult(n int) *Result {
	res := &Result{
		Allocations:  make([]resource.Vector, n),
		ChosenBundle: make([]int, n),
		Payments:     make([]float64, n),
	}
	for i := range res.ChosenBundle {
		res.ChosenBundle[i] = -1
	}
	return res
}

// bundleValue computes a candidate's objective contribution.
func bundleValue(obj Objective, surplus float64, q, reserve resource.Vector) float64 {
	switch obj {
	case TotalTradeValue:
		return q.PositivePart().Dot(reserve)
	default:
		return surplus
	}
}

// MaxExactBids bounds the branch-and-bound search.
const MaxExactBids = 22

// Exact finds the welfare-optimal allocation by branch and bound over the
// XOR choice per bid. It is exponential and refuses instances above
// MaxExactBids; it exists to measure the greedy gap and as the reference
// implementation for tests.
func Exact(reg *resource.Registry, bids []*core.Bid, reserve resource.Vector, obj Objective) (*Result, error) {
	if err := validate(reg, bids, reserve); err != nil {
		return nil, err
	}
	if len(bids) > MaxExactBids {
		return nil, fmt.Errorf("optimize: Exact limited to %d bids, got %d", MaxExactBids, len(bids))
	}
	// Per-bid options: every bundle plus "reject" (index −1).
	type option struct {
		bundle int
		value  float64
	}
	options := make([][]option, len(bids))
	optimistic := make([]float64, len(bids)+1) // suffix sums of best value
	for i, b := range bids {
		opts := []option{{bundle: -1}}
		best := 0.0
		for j, q := range b.Bundles {
			lim := b.Limit
			if len(b.BundleLimits) > 0 {
				lim = b.BundleLimits[j]
			}
			surplus := lim - q.Dot(reserve)
			v := bundleValue(obj, surplus, q, reserve)
			opts = append(opts, option{bundle: j, value: v})
			if v > best {
				best = v
			}
		}
		options[i] = opts
		optimistic[i] = best
	}
	// ahead[i][k] is the most supply bids i.. can still add to pool k:
	// the sum of each one's deepest negative quantity there.
	ahead := make([]resource.Vector, len(bids)+1)
	ahead[len(bids)] = reg.Zero()
	for i := len(bids) - 1; i >= 0; i-- {
		optimistic[i] += optimistic[i+1]
		ahead[i] = ahead[i+1].Clone()
		for k := range ahead[i] {
			deepest := 0.0
			for _, q := range bids[i].Bundles {
				deepest = math.Min(deepest, q[k])
			}
			ahead[i][k] -= deepest
		}
	}

	bestWelfare := math.Inf(-1)
	bestChoice := make([]int, len(bids))
	choice := make([]int, len(bids))
	total := reg.Zero()

	var dfs func(i int, welfare float64)
	dfs = func(i int, welfare float64) {
		if welfare+optimisticAt(optimistic, i) <= bestWelfare {
			return // bound: even taking every remaining best option loses
		}
		for k, v := range total {
			// No completion can repair this shortage. The relative margin
			// is far above rounding, so no leaf the feasibility test below
			// would accept is cut, and the search finds what it would
			// find without the cut.
			if a := ahead[i][k]; v-a > 1e-6*(1+math.Abs(v)+a) {
				return
			}
		}
		if i == len(bids) {
			if total.AllNonPositive(1e-9) && welfare > bestWelfare {
				bestWelfare = welfare
				copy(bestChoice, choice)
			}
			return
		}
		for _, opt := range options[i] {
			choice[i] = opt.bundle
			if opt.bundle >= 0 {
				q := bids[i].Bundles[opt.bundle]
				total.AddInto(q)
				// Feasibility is enforced at the leaves; the shortage cut
				// above drops only prefixes no later seller can repair.
				dfs(i+1, welfare+opt.value)
				total.AddInto(q.Neg())
			} else {
				dfs(i+1, welfare)
			}
		}
	}
	dfs(0, 0)

	if math.IsInf(bestWelfare, -1) {
		return nil, errors.New("optimize: no feasible allocation (not even the empty one?)")
	}
	res := newResult(len(bids))
	res.Welfare = bestWelfare
	for i, j := range bestChoice {
		if j < 0 {
			continue
		}
		q := bids[i].Bundles[j]
		res.Allocations[i] = q.Clone()
		res.ChosenBundle[i] = j
		res.Payments[i] = q.Dot(reserve)
		res.Accepted = append(res.Accepted, i)
	}
	return res, nil
}

func optimisticAt(suffix []float64, i int) float64 { return suffix[i] }

// EvaluateWelfare scores an arbitrary allocation (for instance the clock
// auction's) under the objective, making clock-vs-optimizer comparisons
// possible. chosen[i] is the index of the bundle bids[i] was granted —
// core.Result.ChosenBundle, or this package's Result.ChosenBundle — and
// −1 where the bid got nothing.
func EvaluateWelfare(bids []*core.Bid, chosen []int, reserve resource.Vector, obj Objective) (float64, error) {
	if len(bids) != len(chosen) {
		return 0, fmt.Errorf("optimize: %d bids but %d allocations", len(bids), len(chosen))
	}
	var welfare float64
	for i, j := range chosen {
		if j < 0 {
			continue
		}
		if j >= bids[i].NumBundles() {
			return 0, fmt.Errorf("optimize: allocation %d is not one of the bid's bundles", i)
		}
		q := bids[i].Bundle(j)
		surplus := bids[i].LimitFor(j) - q.Dot(reserve)
		welfare += bundleValue(obj, surplus, q, reserve)
	}
	return welfare, nil
}

// UnfairnessReport counts how many of the price-based SYSTEM fairness
// constraints (3)–(5) the allocation violates when settled at the given
// uniform prices. The clock auction produces zero by construction;
// optimized allocations generally do not — the quantitative form of the
// paper's fairness argument.
func UnfairnessReport(bids []*core.Bid, res *Result, prices resource.Vector) int {
	cr := &core.Result{
		Converged:    true,
		Prices:       prices,
		ChosenBundle: res.ChosenBundle,
		Payments:     res.Payments,
	}
	count := 0
	for _, v := range core.CheckSystem(bids, cr, 1e-9) {
		if v.Constraint >= 3 && v.Constraint <= 5 {
			count++
		}
	}
	return count
}

func validate(reg *resource.Registry, bids []*core.Bid, reserve resource.Vector) error {
	if reg == nil || reg.Len() == 0 {
		return errors.New("optimize: empty registry")
	}
	if len(bids) == 0 {
		return errors.New("optimize: no bids")
	}
	if len(reserve) != reg.Len() {
		return fmt.Errorf("optimize: reserve has %d components, registry %d", len(reserve), reg.Len())
	}
	for _, b := range bids {
		if err := b.Validate(reg.Len()); err != nil {
			return err
		}
	}
	return nil
}

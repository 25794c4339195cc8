package optimize

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

func twoPool() *resource.Registry {
	return resource.NewRegistry(
		resource.Pool{Cluster: "a", Dim: resource.CPU},
		resource.Pool{Cluster: "b", Dim: resource.CPU},
	)
}

func TestObjectiveString(t *testing.T) {
	if TotalSurplus.String() != "total-surplus" || TotalTradeValue.String() != "total-trade-value" {
		t.Error("objective names wrong")
	}
	if Objective(9).String() == "" {
		t.Error("unknown objective empty")
	}
}

func TestGreedyPicksHighSurplus(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	bids := []*core.Bid{
		{User: "supply", Limit: -0.01, Bundles: []resource.Vector{{-10, 0}}},
		{User: "low", Limit: 12, Bundles: []resource.Vector{{10, 0}}},  // surplus 2
		{User: "high", Limit: 30, Bundles: []resource.Vector{{10, 0}}}, // surplus 20
	}
	res, err := Greedy(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Allocations[2] == nil {
		t.Fatal("high-surplus buyer rejected")
	}
	if res.Allocations[1] != nil {
		t.Fatal("low-surplus buyer accepted without supply")
	}
	if res.Allocations[0] == nil {
		t.Fatal("seller rejected")
	}
	// Welfare = seller surplus (−0.01 − (−10)) + buyer surplus 20.
	wantWelfare := (-0.01 + 10.0) + 20.0
	if diff := res.Welfare - wantWelfare; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("welfare = %v, want %v", res.Welfare, wantWelfare)
	}
}

func TestGreedyFeasibility(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	bids := []*core.Bid{
		{User: "s", Limit: -1, Bundles: []resource.Vector{{-5, -5}}},
		{User: "b1", Limit: 100, Bundles: []resource.Vector{{5, 0}}},
		{User: "b2", Limit: 100, Bundles: []resource.Vector{{5, 5}}},
	}
	res, err := Greedy(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	total := reg.Zero()
	for _, x := range res.Allocations {
		if x != nil {
			total.AddInto(x)
		}
	}
	if !total.AllNonPositive(1e-9) {
		t.Fatalf("infeasible allocation: total = %v", total)
	}
}

func TestGreedyTradeValueObjective(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{10, 1}
	bids := []*core.Bid{
		{User: "s", Limit: -0.01, Bundles: []resource.Vector{{-10, -10}}},
		// Low surplus but big trade value (pool a is precious).
		{User: "bigtrade", Limit: 101, Bundles: []resource.Vector{{10, 0}}},
		// Big surplus, small trade value.
		{User: "bigsurplus", Limit: 100, Bundles: []resource.Vector{{0, 10}}},
	}
	res, err := Greedy(reg, bids, reserve, TotalTradeValue)
	if err != nil {
		t.Fatal(err)
	}
	// Both fit; check the welfare counts gross trade value: 10·10 + 10·1
	// bought plus nothing for the seller.
	if res.Allocations[1] == nil || res.Allocations[2] == nil {
		t.Fatal("buyers rejected")
	}
	if res.Welfare < 110-1e-9 {
		t.Errorf("welfare = %v", res.Welfare)
	}
}

func TestExactBeatsOrMatchesGreedy(t *testing.T) {
	// Greedy's density ordering is famously suboptimal for knapsack-like
	// instances: one big bundle worth slightly less than two small ones.
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	bids := []*core.Bid{
		{User: "s", Limit: -0.01, Bundles: []resource.Vector{{-10, 0}}},
		// Density 1.9, takes everything.
		{User: "big", Limit: 29, Bundles: []resource.Vector{{10, 0}}},
		// Density 1.8 each, but together worth more than big.
		{User: "sm1", Limit: 14, Bundles: []resource.Vector{{5, 0}}},
		{User: "sm2", Limit: 14, Bundles: []resource.Vector{{5, 0}}},
	}
	g, err := Greedy(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Exact(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	if e.Welfare < g.Welfare-1e-9 {
		t.Fatalf("exact (%v) below greedy (%v)", e.Welfare, g.Welfare)
	}
	// In this instance greedy takes "big" (surplus 19); exact should find
	// sm1+sm2 (surplus 9+9 = 18)... which is lower. Construct properly:
	// big surplus 19 vs two smalls 9+9=18: big wins, greedy correct. Flip
	// the numbers so smalls win: see TestExactFindsBetterSplit.
	if len(e.Accepted) == 0 {
		t.Fatal("exact accepted nothing")
	}
}

func TestExactFindsBetterSplit(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	bids := []*core.Bid{
		{User: "s", Limit: -0.01, Bundles: []resource.Vector{{-10, 0}}},
		// Density 2.0 but hogs the whole supply for surplus 10.
		{User: "big", Limit: 20, Bundles: []resource.Vector{{10, 0}}},
		// Density 1.8 each; together surplus 2·8 = 16 > 10.
		{User: "sm1", Limit: 13, Bundles: []resource.Vector{{5, 0}}},
		{User: "sm2", Limit: 13, Bundles: []resource.Vector{{5, 0}}},
	}
	g, err := Greedy(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Exact(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy is fooled by the hog's higher... density (20/10=2 vs 13/5=2.6
	// — actually smalls have higher density here, so greedy gets it
	// right; the point is exact must too).
	if e.Welfare < g.Welfare-1e-9 {
		t.Fatalf("exact (%v) below greedy (%v)", e.Welfare, g.Welfare)
	}
	if e.Allocations[2] == nil || e.Allocations[3] == nil {
		t.Errorf("exact did not take the better split: %v", e.Accepted)
	}
}

func TestExactRespectsXOR(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	bids := []*core.Bid{
		{User: "s", Limit: -0.01, Bundles: []resource.Vector{{-10, -10}}},
		// Two bundles; only one may be granted.
		{User: "x", Limit: 50, Bundles: []resource.Vector{{5, 0}, {0, 5}}},
	}
	e, err := Exact(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	if e.Allocations[1] == nil {
		t.Fatal("XOR bid rejected")
	}
	// The granted allocation must equal exactly one bundle.
	matches := 0
	for _, q := range bids[1].Bundles {
		if slices.Equal(q, e.Allocations[1]) {
			matches++
		}
	}
	if matches != 1 {
		t.Fatalf("allocation matches %d bundles", matches)
	}
}

func TestExactSizeLimit(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	var bids []*core.Bid
	for i := 0; i < MaxExactBids+1; i++ {
		bids = append(bids, &core.Bid{User: "u", Limit: 5, Bundles: []resource.Vector{{1, 0}}})
	}
	if _, err := Exact(reg, bids, reserve, TotalSurplus); err == nil {
		t.Error("oversized instance accepted")
	}
}

func TestValidation(t *testing.T) {
	reg := twoPool()
	ok := []*core.Bid{{User: "u", Limit: 5, Bundles: []resource.Vector{{1, 0}}}}
	if _, err := Greedy(nil, ok, resource.Vector{1, 1}, TotalSurplus); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := Greedy(reg, nil, resource.Vector{1, 1}, TotalSurplus); err == nil {
		t.Error("no bids accepted")
	}
	if _, err := Greedy(reg, ok, resource.Vector{1}, TotalSurplus); err == nil {
		t.Error("short reserve accepted")
	}
	bad := []*core.Bid{{User: "", Limit: 5, Bundles: []resource.Vector{{1, 0}}}}
	if _, err := Greedy(reg, bad, resource.Vector{1, 1}, TotalSurplus); err == nil {
		t.Error("invalid bid accepted")
	}
}

func TestEvaluateWelfareMatchesResults(t *testing.T) {
	reg := twoPool()
	reserve := resource.Vector{1, 1}
	bids := []*core.Bid{
		{User: "s", Limit: -0.01, Bundles: []resource.Vector{{-10, 0}}},
		{User: "b", Limit: 30, Bundles: []resource.Vector{{10, 0}}},
	}
	g, err := Greedy(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	w, err := EvaluateWelfare(bids, g.ChosenBundle, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	if diff := w - g.Welfare; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("EvaluateWelfare = %v, Result.Welfare = %v", w, g.Welfare)
	}
	// Mismatched lengths and foreign allocations error.
	if _, err := EvaluateWelfare(bids, nil, reserve, TotalSurplus); err == nil {
		t.Error("length mismatch accepted")
	}
	alien := []int{1, -1}
	if _, err := EvaluateWelfare(bids, alien, reserve, TotalSurplus); err == nil {
		t.Error("foreign allocation accepted")
	}
}

// syntheticMarket builds a random pure-buyer market over nPools
// single-dimension pools: each buyer wants 1–20 units of one pool, XOR
// over 1–3 alternatives, and one operator offers half of the first-choice
// demand. (The root package's clock-scaling benchmark draws from the same
// generator.)
func syntheticMarket(rng *rand.Rand, nUsers, nPools int) (*resource.Registry, []*core.Bid) {
	reg := resource.NewRegistry()
	for i := 0; i < nPools; i++ {
		reg.Add(resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU})
	}
	supply := reg.Zero()
	bids := make([]*core.Bid, 0, nUsers+1)
	for u := 0; u < nUsers; u++ {
		nAlt := rng.Intn(3) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		for a := 0; a < nAlt; a++ {
			v := reg.Zero()
			v[rng.Intn(nPools)] = float64(rng.Intn(20) + 1)
			bundles = append(bundles, v)
		}
		bids = append(bids, &core.Bid{User: fmt.Sprintf("u%d", u), Bundles: bundles, Limit: float64(rng.Intn(150) + 25)})
	}
	for _, b := range bids {
		supply.AddInto(b.Bundles[0])
	}
	for i := range supply {
		supply[i] = -supply[i] / 2
	}
	bids = append(bids, &core.Bid{User: "op", Limit: -0.001, Bundles: []resource.Vector{supply}})
	return reg, bids
}

// TestOptimizerBeatsClockOnWelfareButNotFairness is the quantitative form
// of the paper's Section III.C.4 trade-off: the welfare-optimal allocator
// achieves at least the clock's welfare (the clock "completely ignores
// the objective function"), but its outcome violates the price-fairness
// constraints the clock satisfies by construction.
func TestOptimizerBeatsClockOnWelfareButNotFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	reg, bids := syntheticMarket(rng, 14, 6) // small enough for Exact
	reserve := reg.Zero()
	for i := range reserve {
		reserve[i] = 0.5
	}

	a, err := core.NewAuction(reg, bids, core.Config{
		Start:  reserve,
		Policy: core.Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	clockWelfare, err := EvaluateWelfare(bids, clock.ChosenBundle, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	// The true optimum dominates the clock: the clock's allocation is one
	// feasible point of the same program.
	exact, err := Exact(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Welfare < clockWelfare-1e-9 {
		t.Errorf("exact welfare %v below clock %v", exact.Welfare, clockWelfare)
	}
	// Greedy should land in the same neighborhood (not guaranteed to beat
	// the clock, but never pathologically worse on this fixed instance).
	greedy, err := Greedy(reg, bids, reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Welfare < 0.8*clockWelfare {
		t.Errorf("greedy welfare %v far below clock %v", greedy.Welfare, clockWelfare)
	}
	// The clock outcome is fair at its own prices.
	if n := UnfairnessReport(bids, &Result{ChosenBundle: clock.ChosenBundle, Payments: clock.Payments}, clock.Prices); n != 0 {
		t.Errorf("clock outcome unfair: %d violations", n)
	}
	// The optimizer's outcome, settled at reserve prices, is not.
	if n := UnfairnessReport(bids, exact, reserve); n == 0 {
		t.Log("note: exact outcome happened to be fair on this instance")
	}
}

// TestQuickGreedyAlwaysFeasibleAndExactAtLeastGreedy is the core
// optimizer property pair over random small markets.
func TestQuickGreedyAlwaysFeasibleAndExactAtLeastGreedy(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reg, bids := syntheticMarket(rng, rng.Intn(10)+3, rng.Intn(4)+2)
		reserve := reg.Zero()
		for i := range reserve {
			reserve[i] = 0.25 + rng.Float64()
		}
		g, err := Greedy(reg, bids, reserve, TotalSurplus)
		if err != nil {
			return false
		}
		total := reg.Zero()
		for _, x := range g.Allocations {
			if x != nil {
				total.AddInto(x)
			}
		}
		if !total.AllNonPositive(1e-9) {
			return false
		}
		e, err := Exact(reg, bids, reserve, TotalSurplus)
		if err != nil {
			return false
		}
		return e.Welfare >= g.Welfare-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sortedBy returns a sorted copy (stable) of the candidates.
func sortedBy(cands []candidate, less func(a, b candidate) bool) []candidate {
	out := append([]candidate(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Greedy computes a welfare-oriented allocation: sellers with nonnegative
// surplus are accepted first (adding supply), then buyers in descending
// density while supply lasts. The allocation always satisfies Σx ≤ 0.
func Greedy(reg *resource.Registry, bids []*core.Bid, reserve resource.Vector, obj Objective) (*Result, error) {
	if err := validate(reg, bids, reserve); err != nil {
		return nil, err
	}
	// Keep every bundle as a candidate: if a bid's best bundle does not
	// fit the remaining supply, a substitute bundle still can — the same
	// substitution flexibility the clock auction exploits.
	cands := buildCandidates(bids, reserve, obj, true)

	// Headroom h = −Σx: available supply per pool.
	h := reg.Zero()
	res := newResult(len(bids))
	accept := func(c candidate) {
		q := bids[c.bid].Bundles[c.bundle]
		for k, v := range q {
			h[k] -= v
		}
		res.Allocations[c.bid] = q.Clone()
		res.ChosenBundle[c.bid] = c.bundle
		res.Payments[c.bid] = q.Dot(reserve)
		res.Welfare += c.value
		res.Accepted = append(res.Accepted, c.bid)
	}

	// Phase 1: sellers (pure offers only) with nonnegative surplus, one
	// bundle per bid (XOR).
	for _, c := range sortedBy(cands, func(a, b candidate) bool { return a.surplus > b.surplus }) {
		if res.Allocations[c.bid] != nil {
			continue
		}
		q := bids[c.bid].Bundles[c.bundle]
		if q.PureDirection() == -1 && c.surplus >= 0 {
			accept(c)
		}
	}
	// Phase 2: buyers and traders by density.
	for _, c := range sortedBy(cands, func(a, b candidate) bool { return a.density > b.density }) {
		if res.Allocations[c.bid] != nil {
			continue
		}
		q := bids[c.bid].Bundles[c.bundle]
		if q.PureDirection() == -1 {
			continue
		}
		if c.value <= 0 {
			continue
		}
		fits := true
		for k, v := range q {
			if v > h[k]+1e-12 {
				fits = false
				break
			}
		}
		if fits {
			accept(c)
		}
	}
	sort.Ints(res.Accepted)
	return res, nil
}

// buildCandidates expands every bid × bundle pair, keeping the best
// bundle per bid per the objective (XOR semantics are enforced during
// search as well, but pre-picking reduces the greedy's choice set for
// buyers; for Exact all bundles are kept).
func buildCandidates(bids []*core.Bid, reserve resource.Vector, obj Objective, keepAll bool) []candidate {
	var out []candidate
	for i, b := range bids {
		bestPer := candidate{bid: -1}
		for j, q := range b.Bundles {
			lim := b.Limit
			if len(b.BundleLimits) > 0 {
				lim = b.BundleLimits[j]
			}
			surplus := lim - q.Dot(reserve)
			c := candidate{
				bid:     i,
				bundle:  j,
				surplus: surplus,
				value:   bundleValue(obj, surplus, q, reserve),
			}
			size := q.PositivePart().Sum()
			if size > 0 {
				c.density = c.value / size
			} else {
				c.density = c.value
			}
			if keepAll {
				out = append(out, c)
				continue
			}
			if bestPer.bid < 0 || c.value > bestPer.value {
				bestPer = c
			}
		}
		if !keepAll && bestPer.bid >= 0 {
			out = append(out, bestPer)
		}
	}
	return out
}

// candidate is one (bid, bundle) pair under consideration.
type candidate struct {
	bid     int
	bundle  int
	surplus float64 // π − p̃ᵀq
	value   float64 // objective contribution
	density float64 // value per unit of demanded quantity
}

func (o Objective) String() string {
	switch o {
	case TotalSurplus:
		return "total-surplus"
	case TotalTradeValue:
		return "total-trade-value"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

// onePool builds a single-pool registry.
func onePool() *resource.Registry {
	return resource.NewRegistry(resource.Pool{Cluster: "r1", Dim: resource.CPU})
}

func TestAuctionSinglePoolCompetition(t *testing.T) {
	reg := onePool()
	bids := []*Bid{
		{User: "seller", Limit: -5, Bundles: []resource.Vector{{-10}}},
		{User: "cheap-buyer", Limit: 20, Bundles: []resource.Vector{{10}}},
		{User: "rich-buyer", Limit: 30, Bundles: []resource.Vector{{10}}},
	}
	a, err := NewAuction(reg, bids, Config{
		Start:         resource.Vector{1},
		Policy:        Capped{Alpha: 0.05, Delta: 0.1, MinStep: 0.01},
		RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// The cheap buyer must be priced out just above 2.0 (limit 20 for 10
	// units); the rich buyer wins.
	if res.IsWinner(1) {
		t.Error("cheap buyer won")
	}
	if !res.IsWinner(2) {
		t.Error("rich buyer lost")
	}
	if !res.IsWinner(0) {
		t.Error("seller lost")
	}
	if p := res.Prices[0]; p < 2.0 || p > 3.0 {
		t.Errorf("final price = %v, want within (2.0, 3.0]", p)
	}
	// Winner pays, seller receives the same per-unit price (uniform
	// linear pricing).
	if res.Payments[2] <= 0 || res.Payments[0] >= 0 {
		t.Errorf("payments = %v", res.Payments)
	}
	if diff := res.Payments[2] + res.Payments[0]; diff != 0 {
		t.Errorf("buyer and seller payments unbalanced by %v", diff)
	}
	if v := CheckSystem(bids, res, 1e-9); len(v) != 0 {
		t.Errorf("SYSTEM violations: %v", v)
	}
	// The cheap buyer's drop round must be recorded.
	if res.DropRound[1] <= 0 {
		t.Errorf("DropRound = %v", res.DropRound)
	}
}

func TestAuctionImmediateClear(t *testing.T) {
	// Supply covers demand at reserve prices: ends in one round at p̃.
	reg := onePool()
	bids := []*Bid{
		{User: "seller", Limit: -1, Bundles: []resource.Vector{{-20}}},
		{User: "buyer", Limit: 100, Bundles: []resource.Vector{{10}}},
	}
	a, err := NewAuction(reg, bids, Config{Start: resource.Vector{2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
	if res.Prices[0] != 2 {
		t.Errorf("price moved to %v", res.Prices[0])
	}
	if !res.IsWinner(0) || !res.IsWinner(1) {
		t.Errorf("chosen bundles = %v", res.ChosenBundle)
	}
}

func TestAuctionPricesMonotone(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2")
	bids := []*Bid{
		{User: "op", Limit: -0.01, Bundles: []resource.Vector{{-50, -50, -50, -50, -50, -50}}},
		{User: "a", Limit: 400, Bundles: []resource.Vector{{60, 10, 5, 0, 0, 0}}},
		{User: "b", Limit: 300, Bundles: []resource.Vector{{40, 30, 5, 0, 0, 0}, {0, 0, 0, 40, 30, 5}}},
		{User: "c", Limit: 200, Bundles: []resource.Vector{{0, 0, 0, 30, 30, 30}}},
	}
	start := make(resource.Vector, reg.Len())
	for i := range start {
		start[i] = 1
	}
	a, err := NewAuction(reg, bids, Config{Start: start, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		prev, cur := res.History[i-1].Prices, res.History[i].Prices
		for j := range cur {
			if cur[j] < prev[j] {
				t.Fatalf("price %d decreased at round %d: %v -> %v", j, i, prev[j], cur[j])
			}
		}
	}
	// Only pools with positive excess demand may move.
	for i := 1; i < len(res.History); i++ {
		prevZ := res.History[i-1].ExcessDemand
		for j := range res.History[i].Prices {
			moved := res.History[i].Prices[j] > res.History[i-1].Prices[j]
			if moved && prevZ[j] <= 0 {
				t.Fatalf("pool %d moved without excess demand at round %d", j, i)
			}
		}
	}
}

func TestAuctionSubstitutionMigration(t *testing.T) {
	// A buyer indifferent between congested r1 (high reserve) and idle r2
	// (low reserve) must end up in r2 — the migration behavior at the
	// heart of the paper's Section V.B findings.
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "r1", Dim: resource.CPU},
		resource.Pool{Cluster: "r2", Dim: resource.CPU},
	)
	bids := []*Bid{
		{User: "op", Limit: -0.01, Bundles: []resource.Vector{{-100, -100}}},
		{User: "mobile", Limit: 500, Bundles: []resource.Vector{{50, 0}, {0, 50}}},
	}
	a, err := NewAuction(reg, bids, Config{Start: resource.Vector{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	x := res.Allocation(1)
	if x == nil || x[1] != 50 || x[0] != 0 {
		t.Fatalf("mobile buyer allocated %v, want the idle cluster", x)
	}
}

func TestAuctionMidClockSwitch(t *testing.T) {
	// Two buyers compete in r1 while r2 is free; the poorer buyer should
	// switch to r2 once r1's clock passes it.
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "r1", Dim: resource.CPU},
		resource.Pool{Cluster: "r2", Dim: resource.CPU},
	)
	bids := []*Bid{
		{User: "op", Limit: -0.01, Bundles: []resource.Vector{{-10, -10}}},
		// Insists on r1, deep pockets.
		{User: "anchored", Limit: 1000, Bundles: []resource.Vector{{10, 0}}},
		// Prefers r1 (cheaper start) but accepts r2.
		{User: "flexible", Limit: 1000, Bundles: []resource.Vector{{10, 0}, {0, 10}}},
	}
	a, err := NewAuction(reg, bids, Config{
		Start:  resource.Vector{1, 2},
		Policy: Capped{Alpha: 0.02, Delta: 0.2, MinStep: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if x := res.Allocation(2); x == nil || x[1] != 10 {
		t.Fatalf("flexible buyer allocated %v, want r2", x)
	}
	if x := res.Allocation(1); x == nil || x[0] != 10 {
		t.Fatalf("anchored buyer allocated %v, want r1", x)
	}
	if v := CheckSystem(bids, res, 1e-9); len(v) != 0 {
		t.Errorf("SYSTEM violations: %v", v)
	}
}

func TestAuctionNonConvergenceGuard(t *testing.T) {
	// Two traders whose joint demand never clears: both buy more than
	// they sell with enormous limits, so excess demand persists.
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "x", Dim: resource.CPU},
		resource.Pool{Cluster: "y", Dim: resource.CPU},
	)
	bids := []*Bid{
		{User: "t1", Limit: 1e12, Bundles: []resource.Vector{{2, -1}}},
		{User: "t2", Limit: 1e12, Bundles: []resource.Vector{{-1, 2}}},
	}
	a, err := NewAuction(reg, bids, Config{
		Start:     resource.Vector{1, 1},
		MaxRounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, traders := a.Classes(); traders == 0 {
		t.Error("trader market reported guaranteed convergence")
	}
	res, err := a.Run()
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if res == nil || res.Converged {
		t.Fatal("expected partial, non-converged result")
	}
	if res.Rounds != 200 {
		t.Errorf("Rounds = %d", res.Rounds)
	}
}

func TestAuctionClasses(t *testing.T) {
	reg := onePool()
	bids := []*Bid{
		{User: "b", Limit: 5, Bundles: []resource.Vector{{1}}},
		{User: "s", Limit: -1, Bundles: []resource.Vector{{-1}}},
	}
	a, err := NewAuction(reg, bids, Config{Start: resource.Vector{1}})
	if err != nil {
		t.Fatal(err)
	}
	buyers, sellers, traders := a.Classes()
	if buyers != 1 || sellers != 1 || traders != 0 {
		t.Errorf("Classes = %d/%d/%d", buyers, sellers, traders)
	}
	if len(a.bids) != 2 {
		t.Error("bids wrong")
	}
}

func TestNewAuctionValidation(t *testing.T) {
	reg := onePool()
	okBid := []*Bid{{User: "b", Limit: 5, Bundles: []resource.Vector{{1}}}}
	cases := []struct {
		name string
		reg  *resource.Registry
		bids []*Bid
		cfg  Config
	}{
		{"nil registry", nil, okBid, Config{Start: resource.Vector{1}}},
		{"empty registry", resource.NewRegistry(), okBid, Config{Start: resource.Vector{1}}},
		{"no bids", reg, nil, Config{Start: resource.Vector{1}}},
		{"bad start length", reg, okBid, Config{Start: resource.Vector{1, 2}}},
		{"negative start", reg, okBid, Config{Start: resource.Vector{-1}}},
		{"invalid bid", reg, []*Bid{{User: "", Limit: 1, Bundles: []resource.Vector{{1}}}}, Config{Start: resource.Vector{1}}},
		{"bad policy", reg, okBid, Config{Start: resource.Vector{1}, Policy: Capped{Alpha: -1, Delta: 1}}},
	}
	for _, c := range cases {
		if _, err := NewAuction(c.reg, c.bids, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestAuctionParallelMatchesSerial runs one multi-lane market on the
// driver's serial sweep (GOMAXPROCS 1) and on its worker fan-out
// (GOMAXPROCS 4): the lanes share no state, so the outcomes are
// bit-identical.
func TestAuctionParallelMatchesSerial(t *testing.T) {
	reg, bids := randomRegionalMarket(rand.New(rand.NewSource(7)), 4)
	start := make(resource.Vector, reg.Len())
	for i := range start {
		start[i] = 0.5
	}
	a, err := NewAuction(reg, bids, Config{Start: start, MaxRounds: 300, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Components() < 2 {
		t.Fatalf("market did not decompose: %d components", a.Components())
	}
	run := func(procs int) *Result {
		withProcs(t, procs)
		res, err := a.Run()
		if res == nil {
			t.Fatal(err)
		}
		return res
	}
	mustEqualResults(t, "serial vs fan-out", run(1), run(4))
}

// randomPureMarket builds a random market of pure buyers plus one operator
// seller with ample supply, guaranteeing convergence per Section III.C.3.
func randomPureMarket(rng *rand.Rand, reg *resource.Registry, buyers int) []*Bid {
	supply := make(resource.Vector, reg.Len())
	bids := make([]*Bid, 0, buyers+1)
	clusters := reg.Clusters()
	for i := 0; i < buyers; i++ {
		nAlt := rng.Intn(3) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		for a := 0; a < nAlt; a++ {
			v := make(resource.Vector, reg.Len())
			c := clusters[rng.Intn(len(clusters))]
			for _, pi := range reg.ClusterPools(c) {
				v[pi] = float64(rng.Intn(20) + 1)
			}
			bundles = append(bundles, v)
		}
		bids = append(bids, &Bid{
			User:    "buyer" + string(rune('A'+i%26)),
			Limit:   float64(rng.Intn(200) + 10),
			Bundles: bundles,
		})
	}
	// Operator supply: half of the aggregate first-choice demand, so the
	// clock genuinely has to ration.
	for _, b := range bids {
		supply.AddInto(b.Bundles[0])
	}
	for i := range supply {
		supply[i] = -supply[i] / 2
	}
	bids = append(bids, &Bid{User: "operator", Limit: -0.001, Bundles: []resource.Vector{supply}})
	return bids
}

func TestQuickPureMarketsConvergeAndSatisfySystem(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2", "r3")
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bids := randomPureMarket(rng, reg, rng.Intn(40)+2)
		start := make(resource.Vector, reg.Len())
		for i := range start {
			start[i] = 0.25 + rng.Float64()
		}
		a, err := NewAuction(reg, bids, Config{
			Start:  start,
			Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
		})
		if err != nil {
			return false
		}
		if _, _, traders := a.Classes(); traders != 0 {
			return false
		}
		res, err := a.Run()
		if err != nil {
			return false
		}
		if !res.Converged {
			return false
		}
		// Final prices must respect the pure-buyer price ceiling.
		if maxAbs(res.Prices) > PriceCeiling(bids, start)+1 {
			return false
		}
		return len(CheckSystem(bids, res, 1e-6)) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPriceCeiling(t *testing.T) {
	bids := []*Bid{
		{User: "b", Limit: 100, Bundles: []resource.Vector{{10, 0}}},
		{User: "s", Limit: -1, Bundles: []resource.Vector{{-5, 0}}},
	}
	start := resource.Vector{1, 1}
	// Buyer pays at most 100 for 10 units → 10/unit, plus start 1.
	if got := PriceCeiling(bids, start); got != 11 {
		t.Errorf("PriceCeiling = %v", got)
	}
	// A vector-π buyer is bounded by each bundle's own limit; its scalar
	// Limit is ignored by the proxy and must be ignored here too (it used
	// to set the ceiling: 1/2 + 1 would be far below the real 60/2 + 1).
	bids = append(bids, &Bid{User: "v", Limit: 1, BundleLimits: []float64{40, 60},
		Bundles: []resource.Vector{{4, 0}, {0, 2}}})
	if got := PriceCeiling(bids, start); got != 31 {
		t.Errorf("PriceCeiling with bundle limits = %v, want 31", got)
	}
}

// PriceCeiling returns, for a market of pure buyers and sellers, an upper
// bound on any pool's final price: the largest per-unit price any buyer
// can afford at its smallest bundle, plus the starting price. It is the
// constructive form of the Section III.C.3 convergence argument, the
// property tests' bound on final prices.
func PriceCeiling(bids []*Bid, start resource.Vector) float64 {
	ceiling := 0.0
	for _, b := range bids {
		if b.Class() != PureBuyer {
			continue
		}
		rw := b.view()
		for i := 0; i < int(rw.n); i++ {
			minQty := 0.0
			for _, x := range rw.bundle(i).val {
				if x > 0 && (minQty == 0 || x < minQty) {
					minQty = x
				}
			}
			if minQty > 0 {
				if c := b.LimitFor(i) / minQty; c > ceiling {
					ceiling = c
				}
			}
		}
	}
	return ceiling + maxAbs(start)
}

// maxAbs is v's largest absolute component (its L∞ norm).
func maxAbs(v resource.Vector) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

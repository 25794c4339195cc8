package invariant

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// --- data-level checkers against synthetic books: each must catch the
// violation it exists for, and stay silent on a clean book. ---

func names(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Invariant
	}
	return out
}

func wantViolation(t *testing.T, vs []Violation, invariant string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == invariant {
			return
		}
	}
	t.Errorf("violations %v do not include %q", names(vs), invariant)
}

func TestCheckLedgerBalanced(t *testing.T) {
	clean := []market.LedgerEntry{
		{Auction: 1, Team: "a", Amount: -10},
		{Auction: 1, Team: "operator", Amount: 10},
		{Auction: 2, Team: "b", Amount: -4},
		{Auction: 2, Team: "operator", Amount: 4},
	}
	if vs := CheckLedgerBalanced(clean, Eps); len(vs) != 0 {
		t.Errorf("clean ledger flagged: %v", vs)
	}
	// Total balances but auction 1 is short exactly what auction 2 is
	// over — the per-auction check must catch what the total hides.
	crossCancel := []market.LedgerEntry{
		{Auction: 1, Team: "a", Amount: -10},
		{Auction: 1, Team: "operator", Amount: 7},
		{Auction: 2, Team: "b", Amount: -4},
		{Auction: 2, Team: "operator", Amount: 7},
	}
	vs := CheckLedgerBalanced(crossCancel, Eps)
	if len(vs) != 2 {
		t.Errorf("cross-cancelling imbalance produced %d violations, want 2 per-auction: %v", len(vs), vs)
	}
	wantViolation(t, vs, "ledger-balanced")
}

func TestCheckBalancesNonNegative(t *testing.T) {
	if vs := CheckBalancesNonNegative(map[string]float64{"a": 0, "b": 12.5}, Eps); len(vs) != 0 {
		t.Errorf("clean balances flagged: %v", vs)
	}
	vs := CheckBalancesNonNegative(map[string]float64{"a": -0.5}, Eps)
	wantViolation(t, vs, "non-negative-balance")
}

func TestCheckCommitmentsMatchExposure(t *testing.T) {
	orders := []*market.Order{
		{ID: 0, Team: "a", Status: market.Open, Bid: &core.Bid{Limit: 40}},
		{ID: 1, Team: "a", Status: market.Won, Bid: &core.Bid{Limit: 99}},  // settled: no exposure
		{ID: 2, Team: "b", Status: market.Open, Bid: &core.Bid{Limit: -5}}, // seller: no exposure
	}
	if vs := CheckCommitmentsMatchExposure(map[string]float64{"a": 40}, orders, Eps); len(vs) != 0 {
		t.Errorf("clean commitments flagged: %v", vs)
	}
	// Committed more than the book shows, and a team the counters missed.
	vs := CheckCommitmentsMatchExposure(map[string]float64{"a": 139}, orders, Eps)
	wantViolation(t, vs, "commitments-match-exposure")
	orders = append(orders, &market.Order{ID: 3, Team: "c", Status: market.Open, Bid: &core.Bid{Limit: 7}})
	vs = CheckCommitmentsMatchExposure(map[string]float64{"a": 40}, orders, Eps)
	wantViolation(t, vs, "commitments-match-exposure")
}

func TestCheckWinsWithinCapacity(t *testing.T) {
	reg := resource.NewStandardRegistry("c1")
	capacity := reg.Zero()
	for i := range capacity {
		capacity[i] = 100
	}
	// Bundle 1 won: the 500 of bundle 0 must not be counted.
	bid := func(q float64) *core.Bid {
		losing, winning := reg.Zero(), reg.Zero()
		losing[0], winning[0] = 500, q
		return &core.Bid{Bundles: []resource.Vector{losing, winning}}
	}
	orders := []*market.Order{
		{ID: 0, Team: "a", Status: market.Won, Auction: 1, Bid: bid(60), Bundle: 1},
		{ID: 1, Team: "b", Status: market.Won, Auction: 2, Bid: bid(60), Bundle: 1},
	}
	// 60 per auction is fine even though the two auctions sum to 120:
	// capacity bounds each settlement wave, not the market's lifetime.
	if vs := CheckWinsWithinCapacity(reg, capacity, orders, Eps); len(vs) != 0 {
		t.Errorf("clean wins flagged: %v", vs)
	}
	orders = append(orders, &market.Order{ID: 2, Team: "c", Status: market.Won, Auction: 2, Bid: bid(50), Bundle: 1})
	vs := CheckWinsWithinCapacity(reg, capacity, orders, Eps)
	wantViolation(t, vs, "wins-within-capacity")
}

// TestWinsAtExactCapacity: a pool sold to exactly its capacity is clean,
// at zero tolerance and at the kernel's, and one ulp more is flagged at
// zero tolerance.
func TestWinsAtExactCapacity(t *testing.T) {
	reg := resource.NewStandardRegistry("c1")
	capacity := reg.Zero()
	capacity[0] = 100
	won := func(q float64) []*market.Order {
		v := reg.Zero()
		v[0] = q
		return []*market.Order{{Status: market.Won, Auction: 1, Bid: &core.Bid{Bundles: []resource.Vector{v}}}}
	}
	for _, eps := range []float64{0, Eps} {
		if vs := CheckWinsWithinCapacity(reg, capacity, won(100), eps); len(vs) != 0 {
			t.Errorf("eps %g: a pool sold to exactly its capacity flagged: %v", eps, vs)
		}
	}
	wantViolation(t, CheckWinsWithinCapacity(reg, capacity, won(math.Nextafter(100, 200)), 0), "wins-within-capacity")
}

func TestCheckClearingAboveReserve(t *testing.T) {
	recs := []*market.AuctionRecord{
		{Number: 1, Converged: true, Reserve: resource.Vector{1, 2}, Prices: resource.Vector{1, 3}},
		// Non-converged records are exempt: their final prices are not
		// clearing prices.
		{Number: 2, Converged: false, Reserve: resource.Vector{5, 5}, Prices: resource.Vector{0, 0}},
	}
	if vs := CheckClearingAboveReserve(recs, Eps); len(vs) != 0 {
		t.Errorf("clean history flagged: %v", vs)
	}
	recs = append(recs, &market.AuctionRecord{
		Number: 3, Converged: true, Reserve: resource.Vector{2, 2}, Prices: resource.Vector{2, 1.5},
	})
	vs := CheckClearingAboveReserve(recs, Eps)
	wantViolation(t, vs, "clearing-above-reserve")
}

func TestCheckSettlementEconomics(t *testing.T) {
	prices := resource.Vector{2, 0.5, 3}
	bid := &core.Bid{
		Bundles:      []resource.Vector{{10, 0, 0}, {0, 4, 1}},
		BundleLimits: []float64{25, 6},
	}
	won := func(id, auction, bundle int, payment float64) *market.Order {
		return &market.Order{ID: id, Status: market.Won, Auction: auction, Bid: bid, Bundle: bundle, Payment: payment}
	}
	history := []*market.AuctionRecord{{Number: 1, Converged: true, Prices: prices, Settled: 2}}
	clean := []*market.Order{
		won(0, 1, 0, bid.Cost(0, prices)),
		won(1, 1, 1, bid.Cost(1, prices)),
		{ID: 2, Status: market.Lost, Auction: 1, Bid: bid, Bundle: -1},
		// No record for auction 7 (its settlement wave never completed):
		// only the limit can be checked.
		won(3, 7, 1, 5.75),
	}
	if vs := CheckSettlementEconomics(clean, history, Eps); len(vs) != 0 {
		t.Errorf("clean settlement flagged: %v", vs)
	}
	for _, tc := range []struct {
		name, want string
		doctor     func(o *market.Order)
	}{
		{"payment off by an ulp", "payment-at-clearing-prices", func(o *market.Order) { o.Payment = math.Nextafter(o.Payment, 0) }},
		{"other bundle, same payment", "payment-at-clearing-prices", func(o *market.Order) { o.Bundle = 0 }},
		{"payment above the bundle's limit", "payment-within-limit", func(o *market.Order) { o.Payment = 6.5 }},
		{"bundle past the bid", "won-bundle-of-bid", func(o *market.Order) { o.Bundle = 2 }},
		{"negative bundle", "won-bundle-of-bid", func(o *market.Order) { o.Bundle = -1 }},
	} {
		orders := append([]*market.Order(nil), clean...)
		doctored := *orders[1]
		tc.doctor(&doctored)
		orders[1] = &doctored
		wantViolation(t, CheckSettlementEconomics(orders, history, Eps), tc.want)
	}
	// An interrupted wave's winner keeps auction number 1 but paid other
	// prices: one more winner than the record settled, so it is accounted
	// for — a second stray is not.
	orphan := won(4, 1, 0, 23)
	if vs := CheckSettlementEconomics(append(clean, orphan), history, Eps); len(vs) != 0 {
		t.Errorf("interrupted wave's winner flagged: %v", vs)
	}
	doctored := *clean[0]
	doctored.Payment = 21
	wantViolation(t, CheckSettlementEconomics([]*market.Order{&doctored, clean[1], orphan}, history, Eps),
		"payment-at-clearing-prices")
}

// TestPaymentAtExactLimit: a winner charged exactly its limit is clean,
// at zero tolerance and at the kernel's, and one ulp more is flagged at
// zero tolerance.
func TestPaymentAtExactLimit(t *testing.T) {
	bid := &core.Bid{Bundles: []resource.Vector{{4}}, Limit: 10}
	won := func(payment float64) []*market.Order {
		return []*market.Order{{Status: market.Won, Auction: 1, Bid: bid, Bundle: 0, Payment: payment}}
	}
	for _, eps := range []float64{0, Eps} {
		if vs := CheckSettlementEconomics(won(10), nil, eps); len(vs) != 0 {
			t.Errorf("eps %g: a winner charged exactly its limit flagged: %v", eps, vs)
		}
	}
	wantViolation(t, CheckSettlementEconomics(won(math.Nextafter(10, 20)), nil, 0), "payment-within-limit")
}

func TestCheckOpenCount(t *testing.T) {
	orders := []*market.Order{
		{Status: market.Open}, {Status: market.Won}, {Status: market.Open},
	}
	if vs := CheckOpenCount(2, orders); len(vs) != 0 {
		t.Errorf("matching count flagged: %v", vs)
	}
	wantViolation(t, CheckOpenCount(3, orders), "open-count")
}

func TestCheckLegsAtMostOneWin(t *testing.T) {
	clean := []*federation.FedOrder{
		{ID: 0, Status: market.Won, Active: -1, Legs: []*federation.Leg{
			{Region: "a", Status: market.Lost}, {Region: "b", Status: market.Won},
		}},
		{ID: 1, Status: market.Open, Active: 0, Legs: []*federation.Leg{{Region: "a", Status: market.Open}}},
	}
	if vs := CheckLegsAtMostOneWin(clean); len(vs) != 0 {
		t.Errorf("clean orders flagged: %v", vs)
	}
	double := []*federation.FedOrder{
		{ID: 2, Status: market.Won, Active: -1, Legs: []*federation.Leg{
			{Region: "a", Status: market.Won}, {Region: "b", Status: market.Won},
		}},
	}
	wantViolation(t, CheckLegsAtMostOneWin(double), "xor-at-most-one-leg")
	wonNone := []*federation.FedOrder{
		{ID: 3, Status: market.Won, Active: -1, Legs: []*federation.Leg{{Region: "a", Status: market.Lost}}},
	}
	wantViolation(t, CheckLegsAtMostOneWin(wonNone), "xor-at-most-one-leg")
	danglingActive := []*federation.FedOrder{
		{ID: 4, Status: market.Lost, Active: 1, Legs: []*federation.Leg{
			{Region: "a", Status: market.Lost}, {Region: "b", Status: market.Lost},
		}},
	}
	wantViolation(t, CheckLegsAtMostOneWin(danglingActive), "terminal-order-inactive")
}

func TestCheckEngineEquivalence(t *testing.T) {
	reg := resource.NewStandardRegistry("c1", "c2")
	rng := rand.New(rand.NewSource(5))
	var bids []*core.Bid
	for i := 0; i < 12; i++ {
		b := &core.Bid{User: "u", Limit: 5 + rng.Float64()*80}
		v := reg.Zero()
		v[rng.Intn(reg.Len())] = float64(1 + rng.Intn(8))
		b.Bundles = []resource.Vector{v}
		bids = append(bids, b)
	}
	sell := reg.Zero()
	for i := range sell {
		sell[i] = -20
	}
	bids = append(bids, &core.Bid{User: "op", Bundles: []resource.Vector{sell}, Limit: -0.001})
	start := reg.Zero()
	for i := range start {
		start[i] = 1
	}
	if vs := CheckEngineEquivalence(reg, bids, core.Config{Start: start}); len(vs) != 0 {
		t.Errorf("engines disagree on a plain market: %v", vs)
	}
	// Both engines run out of rounds at the same state, and both refuse a
	// market with no bids: neither is a disagreement.
	held := core.Config{Start: start, MaxRounds: 2}
	if _, err := core.ReferenceRun(reg, bids, held); !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("the held market converged (%v)", err)
	}
	if vs := CheckEngineEquivalence(reg, bids, held); len(vs) != 0 {
		t.Errorf("engines disagree on a held market: %v", vs)
	}
	if vs := CheckEngineEquivalence(reg, nil, core.Config{Start: start}); len(vs) != 0 {
		t.Errorf("engines disagree on a refused market: %v", vs)
	}
}

// --- object-level wrappers over a real market ---

func testExchange(t *testing.T) *market.Exchange {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	fleet := cluster.NewFleet()
	for i, name := range []string{"c1", "c2"} {
		c := cluster.New(name, nil)
		c.AddMachines(10, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		util := 0.2 + 0.4*float64(i)
		if err := fleet.FillToUtilization(rng, name, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestCheckExchangeCleanMarket(t *testing.T) {
	ex := testExchange(t)
	for _, team := range []string{"alpha", "beta"} {
		if err := ex.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := ex.SubmitProduct("alpha", "batch-compute", 2, []string{"c1", "c2"}, 150); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.SubmitProduct("beta", "serving-frontend", 1, []string{"c2"}, 120); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ex.RunAuction(); err != nil && !errors.Is(err, core.ErrNoConvergence) {
			t.Fatal(err)
		}
		RequireExchange(t, "epoch", ex)
	}
	if err := ex.Disburse(500); err != nil {
		t.Fatal(err)
	}
	RequireExchange(t, "after disbursement", ex)
	if won := countWon(ex); won == 0 {
		t.Fatal("nobody won: the economics checks had nothing to check")
	}
}

func countWon(ex *market.Exchange) int {
	n := 0
	for _, o := range ex.Orders() {
		if o.Status == market.Won {
			n++
		}
	}
	return n
}

func TestCheckFederationCleanMarket(t *testing.T) {
	build := func(name string, util float64) *federation.Region {
		rng := rand.New(rand.NewSource(7))
		fleet := cluster.NewFleet()
		cn := name + "-r1"
		c := cluster.New(cn, nil)
		c.AddMachines(10, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		if err := fleet.FillToUtilization(rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
			t.Fatal(err)
		}
		r, err := federation.NewRegion(name, fleet, market.Config{InitialBudget: 1e5})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	f, err := federation.NewFederation(build("hot", 0.8), build("cold", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.OpenAccount("alpha"); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := f.SubmitProduct("alpha", "batch-compute", 1, []string{"hot-r1", "cold-r1"}, 200); err != nil {
			t.Fatal(err)
		}
		for _, tk := range f.Tick() {
			if tk.Err != nil && !errors.Is(tk.Err, core.ErrNoConvergence) {
				t.Fatal(tk.Err)
			}
		}
		RequireFederation(t, "epoch", f)
	}
	won := 0
	for _, fo := range f.Orders() {
		if fo.Status == market.Won {
			won++
		}
	}
	if won == 0 {
		t.Fatal("no order won: the winning-leg check had nothing to check")
	}
}

// TestCheckWinningLegs: a Won order is flagged when its winning leg's
// regional order is not Won, even at the payment the order shows, when
// that regional order is Won but was paid a different amount, and when
// the leg names a region or an order the federation does not have.
func TestCheckWinningLegs(t *testing.T) {
	ex := testExchange(t)
	if err := ex.OpenAccount("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("alpha", "batch-compute", 1, []string{"c1"}, 150); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	won, err := ex.Order(0)
	if err != nil || won.Status != market.Won {
		t.Fatalf("order 0 = %+v (%v), want Won", won, err)
	}
	openID, err := ex.SubmitProduct("alpha", "batch-compute", 1, []string{"c1"}, 150)
	if err != nil {
		t.Fatal(err)
	}
	books := func(region string) *market.Exchange {
		if region == "a" {
			return ex
		}
		return nil
	}
	route := func(doctor func(fo *federation.FedOrder, l *federation.Leg)) []*federation.FedOrder {
		l := &federation.Leg{Region: "a", OrderID: won.ID, Status: market.Won}
		fo := &federation.FedOrder{ID: 0, Status: market.Won, Active: -1, Region: "a", Payment: won.Payment,
			Legs: []*federation.Leg{{Region: "b", OrderID: 9, Status: market.Lost}, l}}
		doctor(fo, l)
		return []*federation.FedOrder{fo}
	}
	if vs := CheckWinningLegs(route(func(*federation.FedOrder, *federation.Leg) {}), books); len(vs) != 0 {
		t.Fatalf("a route that agrees with its book flagged: %v", vs)
	}
	for _, tc := range []struct {
		name   string
		doctor func(fo *federation.FedOrder, l *federation.Leg)
	}{
		{"regional order not Won", func(fo *federation.FedOrder, l *federation.Leg) { l.OrderID, fo.Payment = openID, 0 }},
		{"paid a different amount", func(fo *federation.FedOrder, _ *federation.Leg) {
			fo.Payment = math.Nextafter(fo.Payment, math.Inf(1))
		}},
		{"unknown region", func(_ *federation.FedOrder, l *federation.Leg) { l.Region = "z" }},
		{"missing regional order", func(_ *federation.FedOrder, l *federation.Leg) { l.OrderID = 99 }},
	} {
		if vs := CheckWinningLegs(route(tc.doctor), books); len(vs) != 1 || vs[0].Invariant != "winning-leg-consistent" {
			t.Errorf("%s: violations %v, want exactly one winning-leg-consistent", tc.name, vs)
		}
	}
}

// recorder satisfies Reporter and captures the formatted failures, so the
// Require helpers themselves are testable.
type recorder struct{ msgs []string }

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, strings.TrimSpace(format))
}

func TestRequireForwardsViolations(t *testing.T) {
	rec := &recorder{}
	Require(rec, "soak", []Violation{{Invariant: "x", Detail: "d"}, {Invariant: "y", Detail: "e"}})
	if len(rec.msgs) != 2 {
		t.Errorf("Require forwarded %d failures, want 2", len(rec.msgs))
	}
	Require(rec, "soak", nil)
	if len(rec.msgs) != 2 {
		t.Errorf("clean check still reported: %v", rec.msgs)
	}
}

package market

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

// testFleet builds a two-cluster fleet with r1 congested and r2 idle.
func testFleet(t *testing.T) *cluster.Fleet {
	t.Helper()
	f := cluster.NewFleet()
	for _, name := range []string{"r1", "r2"} {
		c := cluster.New(name, nil)
		c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
		if err := f.AddCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	if err := f.FillToUtilization(rng, "r1", cluster.Usage{CPU: 0.85, RAM: 0.85, Disk: 0.85}); err != nil {
		t.Fatal(err)
	}
	if err := f.FillToUtilization(rng, "r2", cluster.Usage{CPU: 0.2, RAM: 0.2, Disk: 0.2}); err != nil {
		t.Fatal(err)
	}
	return f
}

func newTestExchange(t *testing.T) *Exchange {
	t.Helper()
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// ledgerBalanced reports whether the exchange's billing ledger sums to
// zero within eps: every debit has a matching credit.
func ledgerBalanced(e *Exchange, eps float64) bool {
	var sum float64
	for _, le := range e.Ledger() {
		sum += le.Amount
	}
	return sum < eps && sum > -eps
}

func TestNewExchangeValidation(t *testing.T) {
	bad := []struct {
		name  string
		fleet *cluster.Fleet
		cfg   Config
	}{
		{"nil fleet", nil, Config{}},
		{"empty fleet", cluster.NewFleet(), Config{}},
		{"negative budget", testFleet(t), Config{InitialBudget: -5}},
		{"NaN budget", testFleet(t), Config{InitialBudget: math.NaN()}},
		{"+Inf budget", testFleet(t), Config{InitialBudget: math.Inf(1)}},
		{"-Inf budget", testFleet(t), Config{InitialBudget: math.Inf(-1)}},
	}
	for _, tc := range bad {
		if _, err := NewExchange(tc.fleet, tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestNonFiniteMoneyRejected: Disburse refuses amounts that are not
// finite — NaN or +Inf would reach every balance and the
// ledger — and a NaN balance admits no bid, whatever its limit.
func TestNonFiniteMoneyRejected(t *testing.T) {
	for _, amount := range []float64{math.NaN(), math.Inf(1)} {
		e := newTestExchange(t)
		if err := e.OpenAccount("team-a"); err != nil {
			t.Fatal(err)
		}
		if err := e.Disburse(amount); err == nil {
			t.Errorf("Disburse(%v) accepted", amount)
		}
		if b, _ := e.Balance("team-a"); b != 1000 || !ledgerBalanced(e, 1e-9) {
			t.Errorf("after a rejected %v: balance %v, ledger balanced %v", amount, b, ledgerBalanced(e, 1e-9))
		}
	}

	e := newTestExchange(t)
	if err := e.OpenAccount("team-a"); err != nil {
		t.Fatal(err)
	}
	as := e.accountShardFor("team-a")
	as.accounts["team-a"].balance = math.NaN()
	if _, err := e.SubmitProduct("team-a", "batch-compute", 1, []string{"r2"}, 5); err == nil {
		t.Error("a NaN balance admitted a bid")
	}
}

func TestAccounts(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("team-a"); err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("team-a"); err == nil {
		t.Error("duplicate account accepted")
	}
	if err := e.OpenAccount(""); err == nil {
		t.Error("empty name accepted")
	}
	if err := e.OpenAccount(OperatorAccount); err == nil {
		t.Error("operator name accepted")
	}
	b, err := e.Balance("team-a")
	if err != nil || b != 1000 {
		t.Errorf("Balance = %v, %v", b, err)
	}
	if _, err := e.Balance("ghost"); err == nil {
		t.Error("unknown account accepted")
	}
	if teams := e.Teams(); len(teams) != 1 || teams[0] != "team-a" {
		t.Errorf("Teams = %v", teams)
	}
}

func TestReservePricesReflectCongestion(t *testing.T) {
	e := newTestExchange(t)
	p, err := e.ReservePrices()
	if err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	hot := p[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})]
	cold := p[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})]
	if hot <= cold {
		t.Errorf("congested reserve %v not above idle %v", hot, cold)
	}
	// Congested pool must be above cost (1.0), idle below.
	if hot <= 1.0 {
		t.Errorf("congested reserve %v not above cost", hot)
	}
	if cold >= 1.0 {
		t.Errorf("idle reserve %v not below cost", cold)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	mk := func(limit float64) *core.Bid {
		v := reg.Zero()
		v[0] = 5
		return &core.Bid{User: "a", Bundles: []resource.Vector{v}, Limit: limit}
	}
	if _, err := e.Submit("ghost", mk(10)); err == nil {
		t.Error("unknown team accepted")
	}
	if _, err := e.Submit("a", nil); err == nil {
		t.Error("nil bid accepted")
	}
	if _, err := e.Submit("a", mk(2000)); err == nil {
		t.Error("limit above budget accepted")
	}
	id, err := e.Submit("a", mk(600))
	if err != nil {
		t.Fatal(err)
	}
	if o, _ := e.Order(id); o.Status != Open || o.Side() != +1 {
		t.Errorf("order = %+v", o)
	}
	// A second order may not overcommit the budget across open orders.
	if _, err := e.Submit("a", mk(600)); err == nil {
		t.Error("aggregate budget overcommit accepted")
	}
	// But a 300 order still fits.
	if _, err := e.Submit("a", mk(300)); err != nil {
		t.Errorf("within-budget order rejected: %v", err)
	}
}

func TestSubmitProductTwoStep(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("storage-team"); err != nil {
		t.Fatal(err)
	}
	id, err := e.SubmitProduct("storage-team", "gfs-storage", 10, []string{"r1", "r2"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	o, err := e.Order(id)
	if err != nil {
		t.Fatal(err)
	}
	if o.Bid.NumBundles() != 2 || o.Bid.Bundles != nil {
		t.Fatalf("bundles = %d (dense %v), want one row set per cluster and no vectors", o.Bid.NumBundles(), o.Bid.Bundles)
	}
	reg := e.Registry()
	// 10 TB of gfs-storage covers 2 CPU, 5 RAM, 30 Disk.
	b := o.Bid.Bundle(0)
	if got := b[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.Disk})]; got != 30 {
		t.Errorf("disk covering = %v", got)
	}
	if got := b[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})]; got != 2 {
		t.Errorf("cpu covering = %v", got)
	}

	// Error paths.
	if _, err := e.SubmitProduct("storage-team", "no-such", 1, []string{"r1"}, 10); err == nil {
		t.Error("unknown product accepted")
	}
	if _, err := e.SubmitProduct("storage-team", "gfs-storage", 0, []string{"r1"}, 10); err == nil {
		t.Error("zero quantity accepted")
	}
	if _, err := e.SubmitProduct("storage-team", "gfs-storage", 1, nil, 10); err == nil {
		t.Error("no clusters accepted")
	}
	if _, err := e.SubmitProduct("storage-team", "gfs-storage", 1, []string{"mars"}, 10); err == nil {
		t.Error("unknown cluster accepted")
	}
}

// TestCancelRejectedDuringAuction pins quota conservation: an order
// claimed by an in-flight auction cannot be withdrawn, because its
// counterparties' allocations are computed assuming its contribution.
func TestCancelRejectedDuringAuction(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	id, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, open, err := e.claimBatch()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(id); err == nil {
		t.Error("cancel accepted while batch is settling")
	}
	e.releaseBatch(open)
	if err := e.Cancel(id); err != nil {
		t.Errorf("cancel after batch release: %v", err)
	}
}

func TestCancel(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	id, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(id); err == nil {
		t.Error("double cancel accepted")
	}
	if err := e.Cancel(999); err == nil {
		t.Error("unknown order accepted")
	}
	if len(e.OpenOrders()) != 0 {
		t.Error("cancelled order still open")
	}
}

func TestRunAuctionSettlement(t *testing.T) {
	e := newTestExchange(t)
	for _, team := range []string{"rich", "poor"} {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	// Both teams want the same block of idle r2 capacity; the operator's
	// marketable supply (80% of ~80 free CPU = 64) covers one 50-CPU
	// order but not two.
	reg := e.Registry()
	mk := func(user string, limit float64) *core.Bid {
		v := reg.Zero()
		v[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 50
		v[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.RAM})] = 50
		return &core.Bid{User: user, Bundles: []resource.Vector{v}, Limit: limit}
	}
	if _, err := e.Submit("rich", mk("rich", 900)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("poor", mk("poor", 120)); err != nil {
		t.Fatal(err)
	}

	rec, res, err := e.RunAuction()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Converged || !res.Converged {
		t.Fatal("auction did not converge")
	}
	if rec.Submitted != 2 || rec.Settled != 1 {
		t.Fatalf("record = %+v", rec)
	}
	orders := e.Orders()
	var won, lost *Order
	for _, o := range orders {
		switch o.Status {
		case Won:
			won = o
		case Lost:
			lost = o
		}
	}
	if won == nil || won.Team != "rich" {
		t.Fatalf("winner = %+v", won)
	}
	if lost == nil || lost.Team != "poor" {
		t.Fatalf("loser = %+v", lost)
	}
	// Money moved: rich paid, operator received.
	richBal, _ := e.Balance("rich")
	if richBal >= 1000 {
		t.Errorf("rich balance = %v, expected payment deducted", richBal)
	}
	poorBal, _ := e.Balance("poor")
	if poorBal != 1000 {
		t.Errorf("poor balance = %v, expected untouched", poorBal)
	}
	if !ledgerBalanced(e, 1e-9) {
		t.Error("ledger unbalanced")
	}
	// Quota granted to the winner.
	q := e.Fleet().Quotas().Granted("rich", "r2")
	if q.CPU != 50 || q.RAM != 50 {
		t.Errorf("quota = %v", q)
	}
	// Premium recorded: rich's limit 900, payment should be well below.
	if len(rec.Premiums) != 1 || rec.Premiums[0] <= 0 {
		t.Errorf("premiums = %v", rec.Premiums)
	}
	if rec.PremiumMedian() != rec.Premiums[0] || rec.PremiumMean() != rec.Premiums[0] {
		t.Error("premium stats wrong")
	}
}

func TestRunAuctionNoOrders(t *testing.T) {
	e := newTestExchange(t)
	if _, _, err := e.RunAuction(); err == nil {
		t.Error("auction with no orders accepted")
	}
	if _, _, err := e.PreliminaryPrices(); err == nil {
		t.Error("preliminary prices with no orders accepted")
	}
}

func TestPreliminaryPricesDoNotSettle(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitProduct("a", "batch-compute", 5, []string{"r2"}, 400); err != nil {
		t.Fatal(err)
	}
	p, converged, err := e.PreliminaryPrices()
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Error("clearing preliminary clock reported non-converged")
	}
	if len(p) != e.Registry().Len() {
		t.Fatalf("prices len = %d", len(p))
	}
	// Order still open, no money moved, no history.
	if len(e.OpenOrders()) != 1 || len(e.History()) != 0 || len(e.Ledger()) != 0 {
		t.Error("preliminary run had side effects")
	}
	bal, _ := e.Balance("a")
	if bal != 1000 {
		t.Errorf("balance = %v", bal)
	}
}

func TestSellerReceivesPayment(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("seller"); err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("buyer"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	// Seller offers 50 CPU in congested r1; buyer wants exactly that and
	// is willing to pay a lot. Operator supply in r1 is small because the
	// cluster is nearly full.
	offer := reg.Zero()
	offer[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})] = -50
	if _, err := e.Submit("seller", &core.Bid{User: "seller", Bundles: []resource.Vector{offer}, Limit: -10}); err != nil {
		t.Fatal(err)
	}
	want := reg.Zero()
	want[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})] = 60
	if _, err := e.Submit("buyer", &core.Bid{User: "buyer", Bundles: []resource.Vector{want}, Limit: 900}); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.RunAuction()
	if err != nil {
		t.Fatal(err)
	}
	sellerBal, _ := e.Balance("seller")
	buyerBal, _ := e.Balance("buyer")
	if sellerBal <= 1000 {
		t.Errorf("seller balance = %v, expected revenue", sellerBal)
	}
	if buyerBal >= 1000 {
		t.Errorf("buyer balance = %v, expected payment", buyerBal)
	}
	if !ledgerBalanced(e, 1e-9) {
		t.Error("ledger unbalanced")
	}
	// Seller quota reduced (clamped at 0 since none was granted).
	q := e.Fleet().Quotas().Granted("seller", "r1")
	if q.CPU != 0 {
		t.Errorf("seller quota = %v", q)
	}
}

func TestSummary(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitProduct("a", "batch-compute", 2, []string{"r1", "r2"}, 100); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	offer := reg.Zero()
	offer[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.RAM})] = -10
	if _, err := e.Submit("a", &core.Bid{User: "a/offer", Bundles: []resource.Vector{offer}, Limit: -1}); err != nil {
		t.Fatal(err)
	}

	rows, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r1 := rows[0]
	if r1.Cluster != "r1" || r1.Bids != 1 || r1.Offers != 1 {
		t.Errorf("r1 summary = %+v", r1)
	}
	if rows[1].Bids != 1 || rows[1].Offers != 0 {
		t.Errorf("r2 summary = %+v", rows[1])
	}
	// Prices positive, congested r1 above idle r2.
	if r1.Price.CPU <= rows[1].Price.CPU {
		t.Errorf("price ordering wrong: %v vs %v", r1.Price, rows[1].Price)
	}
	if r1.Utilization.CPU <= rows[1].Utilization.CPU {
		t.Error("utilization ordering wrong")
	}
}

func TestPriceHistory(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	pool := resource.Pool{Cluster: "r2", Dim: resource.CPU}
	if got := e.PriceHistoryTail(pool, 10); len(got) != 0 {
		t.Errorf("history before auctions = %v", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.SubmitProduct("a", "batch-compute", 2, []string{"r2"}, 100); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.RunAuction(); err != nil {
			t.Fatal(err)
		}
	}
	// The tail returns the most recent clearing prices, oldest first.
	i, _ := e.Registry().Index(pool)
	hist := e.History()
	h := e.PriceHistoryTail(pool, 10)
	if len(h) != 2 || h[0] != hist[0].Prices[i] || h[1] != hist[1].Prices[i] {
		t.Fatalf("PriceHistoryTail(10) = %v, want the two auctions' prices", h)
	}
	if ht := e.PriceHistoryTail(pool, 1); len(ht) != 1 || ht[0] != h[1] {
		t.Errorf("PriceHistoryTail(1) = %v, want %v", ht, h[1:])
	}
	if e.PriceHistoryTail(pool, 0) != nil {
		t.Error("non-positive tail limit returned prices")
	}
	if e.PriceHistoryTail(resource.Pool{Cluster: "zz", Dim: resource.CPU}, 5) != nil {
		t.Error("unknown pool returned tail history")
	}
}

func TestCatalog(t *testing.T) {
	c := StandardCatalog()
	names := c.Names()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
	p, err := c.Lookup("gfs-storage")
	if err != nil {
		t.Fatal(err)
	}
	cover := p.Cover(2)
	if cover.Disk != 6 {
		t.Errorf("cover = %v", cover)
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("unknown product accepted")
	}
}

func TestOrderStatusString(t *testing.T) {
	for s, want := range map[OrderStatus]string{
		Open: "open", Won: "won", Lost: "lost", Cancelled: "cancelled",
		Unsettled: "unsettled",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if !strings.Contains(OrderStatus(42).String(), "42") {
		t.Error("unknown status string")
	}
}

func TestOperatorSupplyRespectsMarketableFraction(t *testing.T) {
	f := testFleet(t)
	e, err := NewExchange(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sup := e.operatorSupply()
	if len(sup) == 0 {
		t.Fatal("no operator supply")
	}
	reg := e.Registry()
	// One sell-side bid per cluster with free capacity, in registry
	// cluster order, jointly covering every pool exactly once.
	if want := len(reg.Clusters()); len(sup) != want {
		t.Fatalf("operator supply split into %d bids, want one per cluster (%d)", len(sup), want)
	}
	merged := reg.Zero()
	for _, b := range sup {
		if b.User != OperatorAccount {
			t.Fatalf("supply bid user = %q", b.User)
		}
		clusters := map[string]bool{}
		for i, q := range b.Bundle(0) {
			if q == 0 {
				continue
			}
			if merged[i] != 0 {
				t.Fatalf("pool %d offered by two supply bids", i)
			}
			merged[i] = q
			clusters[reg.Pool(i).Cluster] = true
		}
		if len(clusters) != 1 {
			t.Fatalf("supply bid spans %d clusters, want 1", len(clusters))
		}
	}
	free := f.FreeVector(reg)
	for i := range free {
		want := -free[i] * marketableFraction
		if free[i] <= 0 {
			want = 0
		}
		if math.Abs(merged[i]-want) > 1e-9 {
			t.Errorf("pool %d supply = %v, want %v", i, merged[i], want)
		}
	}
}

// nonConvergentExchange builds a trader-heavy market that hits MaxRounds:
// two opposed traders that never clear (see core's non-convergence test).
func nonConvergentExchange(t *testing.T) *Exchange {
	t.Helper()
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e15, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, team := range []string{"t1", "t2"} {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	reg := e.Registry()
	mk := func(buyCluster, sellCluster string) *core.Bid {
		v := reg.Zero()
		v[mustIndex(reg, resource.Pool{Cluster: buyCluster, Dim: resource.CPU})] = 2000
		v[mustIndex(reg, resource.Pool{Cluster: sellCluster, Dim: resource.CPU})] = -1000
		return &core.Bid{User: buyCluster + "-trader", Bundles: []resource.Vector{v}, Limit: 1e12}
	}
	if _, err := e.Submit("t1", mk("r1", "r2")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("t2", mk("r2", "r1")); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunAuctionNonConvergencePropagates(t *testing.T) {
	e := nonConvergentExchange(t)
	rec, res, err := e.RunAuction()
	if !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if rec == nil || rec.Converged || res.Converged {
		t.Fatal("non-converged auction not recorded as such")
	}
}

// TestRunAuctionNonConvergenceDoesNotSettle is the regression test for
// the bug where a clock that hit MaxRounds settled trades anyway: the
// final prices of a failed clock are not clearing prices, so no money,
// quota, or order status may move.
func TestRunAuctionNonConvergenceDoesNotSettle(t *testing.T) {
	e := nonConvergentExchange(t)
	rec, _, err := e.RunAuction()
	if !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	// Orders stay open for the next epoch.
	for _, o := range e.Orders() {
		if o.Status != Open {
			t.Errorf("order %d settled at non-clearing prices: %s", o.ID, o.Status)
		}
		if o.Auction != -1 {
			t.Errorf("order %d stamped with auction %d", o.ID, o.Auction)
		}
	}
	// No money moved, no quota granted.
	if got := len(e.Ledger()); got != 0 {
		t.Errorf("ledger has %d entries after failed clock", got)
	}
	for _, team := range []string{"t1", "t2"} {
		if bal, _ := e.Balance(team); bal != 1e15 {
			t.Errorf("%s balance = %v, want untouched", team, bal)
		}
		for _, cl := range []string{"r1", "r2"} {
			if q := e.Fleet().Quotas().Granted(team, cl); q.CPU != 0 {
				t.Errorf("%s quota in %s = %v after failed clock", team, cl, q)
			}
		}
	}
	// The attempt is still visible in history with nothing settled.
	if rec.Settled != 0 {
		t.Errorf("record settled = %d", rec.Settled)
	}
	if hist := e.History(); len(hist) != 1 || hist[0].Converged {
		t.Errorf("history = %+v", hist)
	}
}

// TestNonConvergentBatchRetires pins the livelock guard: a batch that
// fails maxAuctionAttempts consecutive clocks is retired as Unsettled —
// without settling anything — so it stops poisoning future epochs.
func TestNonConvergentBatchRetires(t *testing.T) {
	e := nonConvergentExchange(t)
	for i := 0; i < maxAuctionAttempts; i++ {
		if _, _, err := e.RunAuction(); !errors.Is(err, core.ErrNoConvergence) {
			t.Fatalf("attempt %d: err = %v, want ErrNoConvergence", i+1, err)
		}
	}
	for _, o := range e.Orders() {
		if o.Status != Unsettled {
			t.Errorf("order %d = %s after 3 failed clocks, want unsettled", o.ID, o.Status)
		}
		if o.Attempts != 3 {
			t.Errorf("order %d attempts = %d", o.ID, o.Attempts)
		}
	}
	// The book is clear: the next epoch is an idle tick, not a retry.
	if _, _, err := e.RunAuction(); !errors.Is(err, ErrNoOpenOrders) {
		t.Fatalf("after retirement err = %v, want ErrNoOpenOrders", err)
	}
	// Retirement settled nothing.
	if got := len(e.Ledger()); got != 0 {
		t.Errorf("ledger has %d entries", got)
	}
	if bal, _ := e.Balance("t1"); bal != 1e15 {
		t.Errorf("t1 balance = %v", bal)
	}
	// Retired buy commitment is released: the team can bid again.
	reg := e.Registry()
	v := reg.Zero()
	v[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 5
	if _, err := e.Submit("t1", &core.Bid{Bundles: []resource.Vector{v}, Limit: 9e14}); err != nil {
		t.Errorf("post-retirement submit rejected: %v", err)
	}
}

// TestCommitmentReleasedOnSettle pins the incremental open-buy
// accounting: settling or cancelling an order frees its budget
// commitment for the next submit.
func TestCommitmentReleasedOnSettle(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	mk := func(limit float64) *core.Bid {
		v := reg.Zero()
		v[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 5
		return &core.Bid{Bundles: []resource.Vector{v}, Limit: limit}
	}
	id, err := e.Submit("a", mk(900))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("a", mk(900)); err == nil {
		t.Fatal("overcommit accepted")
	}
	// Cancelling releases the commitment.
	if err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("a", mk(900)); err != nil {
		t.Fatalf("commitment not released by cancel: %v", err)
	}
	// Settling releases it too.
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatal(err)
	}
	bal, _ := e.Balance("a")
	if _, err := e.Submit("a", mk(bal*0.9)); err != nil {
		t.Fatalf("commitment not released by settlement: %v", err)
	}
}

// TestSubmitDoesNotMutateCallerBid is the regression test for Submit
// writing bid.User = team into the caller's bid, which core.NewAuction
// documents must not be mutated.
func TestSubmitDoesNotMutateCallerBid(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	v := reg.Zero()
	v[0] = 5
	caller := &core.Bid{Bundles: []resource.Vector{v}, Limit: 10}
	id, err := e.Submit("a", caller)
	if err != nil {
		t.Fatal(err)
	}
	o, err := e.Order(id)
	if err != nil {
		t.Fatal(err)
	}
	if caller.User != "" {
		t.Errorf("caller's bid mutated: User = %q", caller.User)
	}
	if o.Bid.User != "a" {
		t.Errorf("exchange's bid user = %q, want %q", o.Bid.User, "a")
	}
	if o.Bid == caller {
		t.Error("exchange aliases the caller's bid")
	}
	// The clone must be deep: the caller may reuse its vectors after
	// Submit returns while the clock reads the booked bid lock-free.
	v[0] = 999
	if got, _ := e.Order(id); got.Bid.Bundle(0)[0] != 5 {
		t.Errorf("booked bundle aliases caller's vector: %v", got.Bid.Bundle(0))
	}
}

// TestFailedClockPricesNotDisplayed pins that a non-convergent clock's
// final prices never surface as market prices: Summary and
// PriceHistoryTail must skip records with Converged=false.
func TestFailedClockPricesNotDisplayed(t *testing.T) {
	e := nonConvergentExchange(t)
	if _, _, err := e.RunAuction(); !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if len(e.History()) != 1 {
		t.Fatal("failed auction not recorded")
	}
	if p := e.LastClearingPrices(); p != nil {
		t.Errorf("LastClearingPrices = %v after failed clock, want nil", p)
	}
	pool := resource.Pool{Cluster: "r1", Dim: resource.CPU}
	if h := e.PriceHistoryTail(pool, 10); len(h) != 0 {
		t.Errorf("PriceHistoryTail includes non-clearing prices: %v", h)
	}
	// Summary falls back to reserve prices, which for a failed 100-round
	// clock are far below the runaway clock prices.
	rows, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	reserve, err := e.ReservePrices()
	if err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	i := mustIndex(reg, pool)
	if got := rows[0].Price.CPU; math.Abs(got-reserve[i]) > 1e-9 {
		t.Errorf("summary price = %v, want reserve %v", got, reserve[i])
	}
}

// TestCurrentPrices pins the price index every display and the price
// board read: reserve prices before the first converged auction, even
// after a failed clock, and the last clearing prices after it.
func TestCurrentPrices(t *testing.T) {
	failed := nonConvergentExchange(t)
	if _, _, err := failed.RunAuction(); !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	e := newTestExchange(t)
	for _, ex := range []*Exchange{failed, e} {
		prices, clearing, err := ex.CurrentPrices()
		reserve, rerr := ex.ReservePrices()
		if err != nil || rerr != nil || clearing || !reflect.DeepEqual(prices, reserve) {
			t.Fatalf("CurrentPrices = %v, %v, %v before a converged auction, want the reserve prices %v", prices, clearing, err, reserve)
		}
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatal(err)
	}
	prices, clearing, err := e.CurrentPrices()
	if err != nil || !clearing || !reflect.DeepEqual(prices, e.LastClearingPrices()) {
		t.Fatalf("CurrentPrices = %v, %v, %v after a converged auction, want the clearing prices", prices, clearing, err)
	}
}

// TestReadPathsReturnSnapshots pins the snapshot contract: mutating what
// the accessors return must not corrupt exchange state.
func TestReadPathsReturnSnapshots(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	id, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Scribbling on the returned order must not affect the book.
	o, err := e.Order(id)
	if err != nil {
		t.Fatal(err)
	}
	o.Status = Cancelled
	if got := e.OpenOrders(); len(got) != 1 {
		t.Fatalf("open orders = %d after mutating a snapshot", len(got))
	}
	orders := e.Orders()
	orders[0].Status = Cancelled
	orders[0].Team = "mallory"
	if got, err := e.Order(o.ID); err != nil || got.Status != Open || got.Team != "a" {
		t.Errorf("order corrupted through snapshot: %+v (%v)", got, err)
	}
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatal(err)
	}
	led := e.Ledger()
	if len(led) == 0 {
		t.Fatal("no ledger entries")
	}
	led[0].Amount += 1e9
	if !ledgerBalanced(e, 1e-9) {
		t.Error("ledger corrupted through snapshot")
	}
}

// TestConcurrentTraffic hammers the thread-safe exchange from many
// goroutines while binding auctions settle (run with -race): submits,
// cancels, balance reads, and JSON-read-path accessors all in flight.
func TestConcurrentTraffic(t *testing.T) {
	e := newTestExchange(t)
	const teams = 8
	names := make([]string, teams)
	for i := range names {
		names[i] = fmt.Sprintf("team%d", i)
		if err := e.OpenAccount(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	var traders sync.WaitGroup
	stop := make(chan struct{})
	auctioneerDone := make(chan struct{})
	// One auctioneer settling continuously.
	go func() {
		defer close(auctioneerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, ErrNoOpenOrders) {
				t.Errorf("RunAuction: %v", err)
				return
			}
		}
	}()
	// Eight trader goroutines submitting, cancelling, and reading.
	for g := 0; g < teams; g++ {
		traders.Add(1)
		go func(team string) {
			defer traders.Done()
			for i := 0; i < 40; i++ {
				id, err := e.SubmitProduct(team, "batch-compute", 1, []string{"r2"}, 3)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%4 == 0 {
					// Cancel may legitimately lose the race with the
					// settling auction.
					_ = e.Cancel(id)
				}
				if _, err := e.Balance(team); err != nil {
					t.Errorf("balance: %v", err)
				}
				_ = e.OpenOrders()
				_ = e.Orders()
				_ = e.Ledger()
				_ = e.History()
				if _, err := e.Summary(); err != nil {
					t.Errorf("summary: %v", err)
				}
				if i%8 == 0 {
					// Disburse reads the quota ledger that the settling
					// auction writes; it must hold the book lock.
					if err := e.Disburse(10); err != nil {
						t.Errorf("disburse: %v", err)
					}
				}
			}
		}(names[g])
	}
	// Wait for traders, then stop the auctioneer.
	traders.Wait()
	close(stop)
	<-auctioneerDone

	// Drain the book and check the books balance.
	if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, ErrNoOpenOrders) {
		t.Fatal(err)
	}
	if !ledgerBalanced(e, 1e-6) {
		t.Error("ledger unbalanced after concurrent traffic")
	}
	for _, o := range e.Orders() {
		if o.Status == Won && o.Auction <= 0 {
			t.Errorf("won order %d missing auction stamp", o.ID)
		}
	}
	// The incremental open-buy commitment must agree with a full scan.
	// Traffic has stopped, so the snapshot and the stripe reads are
	// consistent.
	scan := make(map[string]float64)
	for _, o := range e.Orders() {
		if o.Status == Open && o.Bid.MaxLimit() > 0 {
			scan[o.Team] += o.Bid.MaxLimit()
		}
	}
	for s := range e.accountShards {
		as := &e.accountShards[s]
		as.mu.Lock()
		for team, a := range as.accounts {
			if math.Abs(a.openBuy-scan[team]) > 1e-9 {
				t.Errorf("openBuy[%s] = %v, scan says %v", team, a.openBuy, scan[team])
			}
		}
		as.mu.Unlock()
	}
}

// TestPackedFormUnderConcurrentClocks is the publication contract of the
// single bid form (run with -race): SubmitProduct and Submit build the
// rows on a bid nobody else can see, nothing writes a booked bid again —
// not a cancel, not a settlement, not a clock, binding, preliminary or a
// caller's own core.NewAuction over order snapshots — and Submit only
// reads the caller's bid: the submitters below keep rewriting the very
// vectors they just submitted while the clocks read the book, which the
// race detector would flag if a booked bid aliased them. Afterwards no
// order in the book, open or terminal, holds an R-length vector, and
// each still yields the bundles it was submitted with.
func TestPackedFormUnderConcurrentClocks(t *testing.T) {
	e := newTestExchange(t)
	reg := e.Registry()
	const traders, perTrader = 4, 60
	for g := 0; g < traders; g++ {
		if err := e.OpenAccount(fmt.Sprintf("team%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var clocks, submitters sync.WaitGroup
	clock := func(run func() error) {
		clocks.Add(1)
		go func() {
			defer clocks.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := run(); err != nil && !errors.Is(err, ErrNoOpenOrders) && !errors.Is(err, core.ErrNoConvergence) {
					t.Error(err)
					return
				}
			}
		}()
	}
	clock(func() error { _, _, err := e.RunAuction(); return err })
	clock(func() error { _, _, err := e.PreliminaryPrices(); return err })
	// The benchmark's replay: an outside clock over order snapshots, which
	// share the book's rows.
	clock(func() error {
		var bids []*core.Bid
		for _, o := range e.OpenOrders() {
			bids = append(bids, o.Bid)
		}
		if len(bids) == 0 {
			return nil
		}
		start, err := e.ReservePrices()
		if err != nil {
			return err
		}
		a, err := core.NewAuction(reg, bids, core.Config{Start: start, MaxRounds: 50})
		if err != nil {
			return err
		}
		_, err = a.Run()
		return err
	})
	r2cpu := mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})
	// wantCPU[id] is the r2/CPU quantity order id was submitted with.
	var mu sync.Mutex
	wantCPU := map[int]float64{}
	for g := 0; g < traders; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			team := fmt.Sprintf("team%d", g)
			// One bid value and one vector, reused for every Submit.
			mine := &core.Bid{Bundles: []resource.Vector{reg.Zero()}, BundleLimits: []float64{0}}
			for i := 0; i < perTrader; i++ {
				var id int
				var err error
				qty := 0.0
				if i%2 == 0 {
					id, err = e.SubmitProduct(team, "batch-compute", 1, []string{"r1", "r2"}[:1+i%4/2], float64(2+(i+g)%7))
				} else {
					qty = float64(1 + i%5)
					mine.Bundles[0][r2cpu], mine.BundleLimits[0] = qty, float64(2+(i+g)%7)
					id, err = e.Submit(team, mine)
					if mine.User != "" || len(mine.Bundles) != 1 || mine.NumBundles() != 1 || mine.Bundles[0][r2cpu] != qty {
						t.Errorf("Submit wrote the caller's bid: %+v", mine)
					}
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				wantCPU[id] = qty
				mu.Unlock()
				if i%3 == 0 {
					_ = e.Cancel(id) // may lose the race with a settling clock
				}
			}
		}(g)
	}
	submitters.Wait()
	close(stop)
	clocks.Wait()

	// Leave one order open, then audit the book itself, not snapshots.
	if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, ErrNoOpenOrders) {
		t.Fatal(err)
	}
	last, err := e.SubmitProduct("team0", "batch-compute", 1, []string{"r2"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	open, terminal := 0, 0
	for id := 0; id <= last; id++ {
		o, err := e.Order(id) // terminal orders exist only as records: read the view
		if err != nil {
			t.Fatal(err)
		}
		if o.Status == Open {
			open++
		} else {
			terminal++
		}
		if o.Bid.Bundles != nil {
			t.Errorf("order %d (%s) holds R-length vectors", id, o.Status)
		}
		if qty, byBid := wantCPU[id]; byBid && qty > 0 {
			if pools, qtys := o.Bid.Row(0); o.Bid.NumBundles() != 1 || len(pools) != 1 || int(pools[0]) != r2cpu || qtys[0] != qty {
				t.Errorf("order %d (%s): rows %v %v, submitted %v of pool %d", id, o.Status, pools, qtys, qty, r2cpu)
			}
		}
	}
	if open != 1 || terminal != traders*perTrader {
		t.Errorf("audited %d open and %d terminal orders, want 1 and %d", open, terminal, traders*perTrader)
	}
}

// TestVectorPiBidBudgetEnforced is the regression test for the budget
// check only looking at the scalar Limit: a vector-π bid's exposure is
// its largest per-bundle limit, which must be covered by the balance.
func TestVectorPiBidBudgetEnforced(t *testing.T) {
	e := newTestExchange(t) // InitialBudget 1000
	if err := e.OpenAccount("vp"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	mk := func(lim1, lim2 float64) *core.Bid {
		b1 := reg.Zero()
		b1[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})] = 5
		b2 := reg.Zero()
		b2[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 5
		return &core.Bid{Bundles: []resource.Vector{b1, b2}, BundleLimits: []float64{lim1, lim2}}
	}
	// Exposure 5000 > balance 1000 even though scalar Limit is zero.
	if _, err := e.Submit("vp", mk(5000, 200)); err == nil {
		t.Fatal("vector-pi bid over budget accepted")
	}
	// Within budget: accepted, and its exposure counts against the next.
	if _, err := e.Submit("vp", mk(700, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("vp", mk(400, 100)); err == nil {
		t.Error("aggregate vector-pi overcommit accepted")
	}
	if _, err := e.Submit("vp", mk(300, 100)); err != nil {
		t.Errorf("within-budget vector-pi bid rejected: %v", err)
	}
}

func TestSubmitVectorPiBid(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("vp"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	b1 := reg.Zero()
	b1[mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})] = 10
	b2 := reg.Zero()
	b2[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 10
	bid := &core.Bid{
		User:         "vp",
		Bundles:      []resource.Vector{b1, b2},
		BundleLimits: []float64{900, 200}, // values r1 far more
	}
	if _, err := e.Submit("vp", bid); err != nil {
		t.Fatal(err)
	}
	rec, res, err := e.RunAuction()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Converged {
		t.Fatal("did not converge")
	}
	if slices.Max(res.ChosenBundle) < 0 {
		t.Fatal("vector-pi bid lost an uncontested market")
	}
}

// TestPremiumUsesWinningBundleLimit pins the vector-limit premium fix:
// γ_u must be measured against the limit of the bundle that actually won
// (Bid.LimitFor over Result.ChosenBundle), not the scalar Limit, which
// the proxy ignores when BundleLimits is set.
func TestPremiumUsesWinningBundleLimit(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	cpu2, ok := reg.Index(resource.Pool{Cluster: "r2", Dim: resource.CPU})
	if !ok {
		t.Fatal("no r2/CPU pool")
	}
	bundle := func(qty float64) resource.Vector {
		v := reg.Zero()
		v[cpu2] = qty
		return v
	}
	// Bundle 0 carries an unaffordable limit; bundle 1 must win. The
	// scalar Limit is deliberately 0: the old premium computed
	// |0 − pay|/|pay| = 1 regardless of the real surplus.
	bid := &core.Bid{
		User:         "a/vector",
		Bundles:      []resource.Vector{bundle(4), bundle(2)},
		BundleLimits: []float64{1e-9, 500},
	}
	if _, err := e.Submit("a", bid); err != nil {
		t.Fatal(err)
	}
	rec, res, err := e.RunAuction()
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsWinner(0) {
		t.Fatal("vector-limit bid lost")
	}
	if res.ChosenBundle[0] != 1 {
		t.Fatalf("ChosenBundle = %d, want 1", res.ChosenBundle[0])
	}
	if len(rec.Premiums) != 1 {
		t.Fatalf("premiums = %v", rec.Premiums)
	}
	want := core.Premium(500, res.Payments[0])
	if got := rec.Premiums[0]; got != want {
		t.Errorf("premium = %v, want %v (winning bundle limit 500)", got, want)
	}
	if math.Abs(rec.Premiums[0]-1) < 1e-9 {
		t.Error("premium computed from the ignored scalar limit")
	}
}

// TestPreliminaryPricesNonConvergent pins the bid-window fix: a
// preliminary clock that hits MaxRounds still returns its in-progress
// prices with converged=false (plus ErrNoConvergence), instead of
// discarding them — Section V.A shows preliminary prices exactly while
// the market has not cleared yet.
func TestPreliminaryPricesNonConvergent(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e7, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	// Demand far beyond the operator's sellable capacity with a limit the
	// clock cannot price out in two rounds.
	if _, err := e.SubmitProduct("a", "batch-compute", 50, []string{"r2"}, 1e6); err != nil {
		t.Fatal(err)
	}
	p, converged, err := e.PreliminaryPrices()
	if !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if converged {
		t.Error("non-clearing clock reported converged")
	}
	if len(p) != e.Registry().Len() {
		t.Fatalf("prices = %v, want the in-progress vector", p)
	}
	// Non-binding: the order is still open and nothing settled.
	if len(e.OpenOrders()) != 1 || len(e.History()) != 0 {
		t.Error("preliminary run had side effects")
	}
}

// TestSubmitProductRowsMatchesNames books one random order stream by
// cluster name on one exchange and by registry row on an identical one:
// the two paths share one admission, so ids, booked bids, budget refusals
// and, after a settlement, balances must agree. Rows no name could give —
// none, a row of no pool, a pool outside the registry — are refused.
func TestSubmitProductRowsMatchesNames(t *testing.T) {
	build := func() *Exchange {
		f := cluster.NewFleet()
		for c := 1; c <= 5; c++ {
			cl := cluster.New(fmt.Sprintf("r%d", c), nil)
			cl.AddMachines(10, cluster.Usage{CPU: 16, RAM: 64, Disk: 10})
			if err := f.AddCluster(cl); err != nil {
				t.Fatal(err)
			}
		}
		e, err := NewExchange(f, Config{InitialBudget: 3000})
		if err != nil {
			t.Fatal(err)
		}
		for _, team := range []string{"a", "b"} {
			if err := e.OpenAccount(team); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	byName, byRow := build(), build()
	products := []string{"batch-compute", "gfs-storage", "serving-frontend"}
	rng := rand.New(rand.NewSource(7))
	refused := 0
	for i := 0; i < 300; i++ {
		team, product := []string{"a", "b"}[i%2], products[rng.Intn(len(products))]
		qty, limit := float64(1+rng.Intn(4)), float64(1+rng.Intn(60))
		var names []string
		var rows []resource.PoolRow
		for _, k := range rng.Perm(5)[:1+rng.Intn(4)] {
			name := fmt.Sprintf("r%d", k+1)
			row, ok := byRow.Registry().Row(name)
			if !ok {
				t.Fatalf("cluster %s has no row", name)
			}
			names, rows = append(names, name), append(rows, row)
		}
		idN, errN := byName.SubmitProduct(team, product, qty, names, limit)
		idR, errR := byRow.SubmitProductRows(team, product, qty, rows, limit)
		if idN != idR || fmt.Sprint(errN) != fmt.Sprint(errR) {
			t.Fatalf("order %d: by name %d, %v; by row %d, %v", i, idN, errN, idR, errR)
		}
		if errN != nil {
			refused++
			continue
		}
		on, _ := byName.Order(idN)
		or, _ := byRow.Order(idR)
		if !reflect.DeepEqual(on, or) {
			t.Fatalf("order %d: by name %+v, by row %+v", i, on, or)
		}
	}
	if refused == 0 {
		t.Fatal("no order was refused for budget: the stream never reached the check")
	}
	if _, _, err := byName.RunAuction(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := byRow.RunAuction(); err != nil {
		t.Fatal(err)
	}
	for _, team := range []string{"a", "b"} {
		bn, _ := byName.Balance(team)
		br, _ := byRow.Balance(team)
		if math.Float64bits(bn) != math.Float64bits(br) {
			t.Errorf("team %s settled to %v by name, %v by row", team, bn, br)
		}
	}

	row, _ := byRow.Registry().Row("r1")
	for _, bad := range [][]resource.PoolRow{
		nil,
		{{-1, -1, -1}},
		{row, {row[0], int32(byRow.Registry().Len()), -1}},
	} {
		if _, err := byRow.SubmitProductRows("a", "batch-compute", 1, bad, 10); err == nil {
			t.Errorf("rows %v accepted", bad)
		}
	}
}

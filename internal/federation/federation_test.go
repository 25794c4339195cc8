package federation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

func poolOf(cluster string) resource.Pool {
	return resource.Pool{Cluster: cluster, Dim: resource.CPU}
}

// ledgerBalanced reports whether every region's billing ledger sums to
// zero: money is conserved within each region, so it is conserved
// globally.
func ledgerBalanced(f *Federation, eps float64) bool {
	for _, r := range f.regions {
		var sum float64
		for _, le := range r.ex.Ledger() {
			sum += le.Amount
		}
		if sum >= eps || sum <= -eps {
			return false
		}
	}
	return true
}

// regionNamed returns the member region called name.
func regionNamed(t *testing.T, f *Federation, name string) *Region {
	t.Helper()
	for _, r := range f.regions {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no region %q", name)
	return nil
}

// testRegion builds a region of `clusters` uniform clusters filled to the
// given utilization, with clusters named "<name>-r1", "<name>-r2", ….
func testRegion(t testing.TB, name string, clusters int, util float64) *Region {
	t.Helper()
	return configuredRegion(t, name, clusters, util, market.Config{InitialBudget: 1e6})
}

// configuredRegion is testRegion with the region's market.Config.
func configuredRegion(t testing.TB, name string, clusters int, util float64, cfg market.Config) *Region {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	fleet := cluster.NewFleet()
	for i := 1; i <= clusters; i++ {
		cn := fmt.Sprintf("%s-r%d", name, i)
		c := cluster.New(cn, nil)
		c.AddMachines(20, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		if util > 0 {
			if err := fleet.FillToUtilization(rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := NewRegion(name, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCancelRefusedByRegion: a leg its region settled behind the
// router's back (through the Exchange, not the router) makes the
// region refuse the cancel; the router passes the refusal on, changes
// nothing, and its next wave over the region reads the outcome.
func TestCancelRefusedByRegion(t *testing.T) {
	f := hotCold(t)
	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Region("cold").Exchange().RunAuction(); err != nil {
		t.Fatal(err)
	}
	regional, err := f.Region("cold").Exchange().Order(0)
	if err != nil || (regional.Status != market.Won && regional.Status != market.Lost) {
		t.Fatalf("regional order = %+v, %v; want it settled", regional, err)
	}
	want := fmt.Sprintf("order 0 is %s", regional.Status)
	if err := f.Cancel(id); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("cancel of a regionally settled leg = %v, want %q", err, want)
	}
	if fo, _ := f.Order(id); fo.Status != market.Open || fo.Active != 0 || fo.Legs[0].Status != market.Open {
		t.Fatalf("order after the refused cancel = %s, active %d, leg %s; want unchanged", fo.Status, fo.Active, fo.Legs[0].Status)
	}
	if _, err := f.SettleRegion("cold"); !errors.Is(err, market.ErrNoOpenOrders) {
		t.Fatalf("settle of the emptied book = %v, want ErrNoOpenOrders", err)
	}
	if fo, _ := f.Order(id); fo.Status != regional.Status {
		t.Fatalf("order after the next wave = %s, want %s", fo.Status, regional.Status)
	}
}

// TestOneLegHeldRetiresUnsettled: a one-leg order whose lane runs out of
// rounds is held open by its region, and retired Unsettled on the
// third hold; with no leg to fail over to, the router retires it
// Unsettled too.
func TestOneLegHeldRetiresUnsettled(t *testing.T) {
	tight := configuredRegion(t, "tight", 1, 0.5, market.Config{InitialBudget: 1e6, MaxRounds: 1})
	f, err := NewFederation(tight, testRegion(t, "cold", 1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	// Demand far above the cluster's supply: one round cannot clear it.
	id, err := f.SubmitProduct("team", "batch-compute", 1000, []string{"tight-r1"}, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := f.SettleRegion("tight"); err != nil && !errors.Is(err, core.ErrNoConvergence) {
			t.Fatal(err)
		}
		fo, _ := f.Order(id)
		if epoch < 3 && (fo.Status != market.Open || fo.Active != 0) {
			t.Fatalf("epoch %d: order = %s, active %d; want held open", epoch, fo.Status, fo.Active)
		}
		if epoch == 3 && (fo.Status != market.Unsettled || fo.Active != -1 || fo.Legs[0].Status != market.Unsettled) {
			t.Fatalf("epoch 3: order = %s, active %d, leg %s; want retired Unsettled", fo.Status, fo.Active, fo.Legs[0].Status)
		}
	}
	if st := f.Stats(); st.Unsettled != 1 || st.Failovers != 0 || st.Won+st.Lost != 0 {
		t.Fatalf("stats = %+v, want 1 unsettled and no failover", st)
	}
}

// hotCold builds the canonical two-region federation: "hot" congested,
// "cold" nearly idle, with one funded team.
func hotCold(t testing.TB) *Federation {
	t.Helper()
	f, err := NewFederation(testRegion(t, "hot", 2, 0.85), testRegion(t, "cold", 2, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFederationValidation(t *testing.T) {
	if _, err := NewFederation(); err == nil {
		t.Error("empty federation accepted")
	}
	a := testRegion(t, "a", 1, 0)
	if _, err := NewFederation(a, testRegion(t, "a", 1, 0)); err == nil {
		t.Error("duplicate region name accepted")
	}
	// Duplicate cluster name across differently named regions.
	dupFleet := cluster.NewFleet()
	c := cluster.New("a-r1", nil)
	c.AddMachines(2, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
	if err := dupFleet.AddCluster(c); err != nil {
		t.Fatal(err)
	}
	b, err := NewRegion("b", dupFleet, market.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFederation(a, b); err == nil {
		t.Error("duplicate cluster name accepted")
	}
	if _, err := NewRegion("", cluster.NewFleet(), market.Config{}); err == nil {
		t.Error("empty region name accepted")
	}
}

func TestRegionLocalRouting(t *testing.T) {
	f := hotCold(t)
	id, err := f.SubmitProduct("team", "batch-compute", 2, []string{"cold-r1", "cold-r2"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := f.Order(id)
	if len(fo.Legs) != 1 || fo.Legs[0].Region != "cold" {
		t.Fatalf("legs = %+v, want one cold leg", fo.Legs)
	}
	if len(fo.Legs[0].Clusters) != 2 {
		t.Errorf("intra-region XOR collapsed: %v", fo.Legs[0].Clusters)
	}
	ticks := f.Tick()
	for _, tk := range ticks {
		if tk.Err != nil {
			t.Fatalf("region %s: %v", tk.Region, tk.Err)
		}
		// The hot region's book is empty: a region-local order must not
		// touch foreign exchanges.
		if tk.Region == "hot" && tk.Record != nil {
			t.Errorf("hot region settled %d orders for a cold-only bid", tk.Record.Submitted)
		}
	}
	got, err := f.Order(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != market.Won {
		t.Fatalf("order status = %s, want won", got.Status)
	}
	if got.Region != "cold" {
		t.Errorf("won in %q, want cold", got.Region)
	}
	if got.Payment <= 0 {
		t.Errorf("payment = %g", got.Payment)
	}
	if !ledgerBalanced(f, 1e-9) {
		t.Error("ledger unbalanced")
	}
}

func TestCrossRegionRoutesCheapestFirst(t *testing.T) {
	f := hotCold(t)
	id, err := f.SubmitProduct("team", "batch-compute", 2, []string{"hot-r1", "cold-r1"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := f.Order(id)
	if len(fo.Legs) != 2 {
		t.Fatalf("legs = %d, want 2", len(fo.Legs))
	}
	// The hot region's congestion-weighted reserve prices dwarf the cold
	// region's, so the price board must order the cold leg first.
	if fo.Legs[0].Region != "cold" {
		t.Fatalf("first leg routed to %q, want cold (ests: %g vs %g)",
			fo.Legs[0].Region, fo.Legs[0].Est, fo.Legs[1].Est)
	}
	if fo.Legs[0].Est >= fo.Legs[1].Est {
		t.Errorf("cold est %g not below hot est %g", fo.Legs[0].Est, fo.Legs[1].Est)
	}
	if fo.Legs[1].OrderID != -1 {
		t.Error("second leg submitted before the first lost")
	}
	if fo.WonLeg() != nil {
		t.Error("an open order names a winning leg")
	}
	f.Tick()
	got, _ := f.Order(id)
	if got.Status != market.Won || got.Region != "cold" {
		t.Fatalf("order = %s in %q, want won in cold", got.Status, got.Region)
	}
	// The grant is the winning leg's regional order's, not a copy.
	leg := got.WonLeg()
	if leg == nil || leg.Region != "cold" {
		t.Fatalf("winning leg = %+v, want the cold one", leg)
	}
	o, err := f.Region("cold").Exchange().Order(leg.OrderID)
	if err != nil {
		t.Fatal(err)
	}
	if pools, qty := o.Grant(); len(pools) == 0 || len(pools) != len(qty) || o.Payment != got.Payment {
		t.Errorf("regional order %d: grant %v %v, payment %g vs federated %g", o.ID, pools, qty, o.Payment, got.Payment)
	}
	st := f.Stats()
	if st.CrossRegion != 1 || st.Won != 1 || st.Failovers != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailoverAfterLosingLeg(t *testing.T) {
	f := hotCold(t)
	// Poison the board with a stale quote that makes the hot region look
	// free, so the router books the hot leg first even though the bid's
	// limit cannot cover the hot region's true reserve prices.
	f.mu.Lock()
	hot := f.Region("hot")
	cheap := hot.ex.Registry().Zero()
	f.publishLocked(f.GossipTick(), f.table.regionIdx["hot"], &Quote{Region: "hot", Prices: cheap, Tick: 1})
	f.mu.Unlock()

	// limit 12: covers 2 batch-compute workers in the cold region (~5.5
	// at idle reserve prices) but not in the hot region, where congestion
	// weights push the same cover past 24.
	id, err := f.SubmitProduct("team", "batch-compute", 2, []string{"hot-r1", "cold-r1"}, 12)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := f.Order(id)
	if fo.Legs[0].Region != "hot" {
		t.Fatalf("stale board ignored: first leg %q", fo.Legs[0].Region)
	}

	// Epoch 1: the hot leg is priced out and loses; the router must fail
	// over to the cold region within the same tick.
	f.Tick()
	got, _ := f.Order(id)
	if got.Legs[0].Status != market.Lost {
		t.Fatalf("hot leg = %s, want lost", got.Legs[0].Status)
	}
	if got.Status != market.Open || got.Active != 1 || got.Legs[1].OrderID < 0 {
		t.Fatalf("failover did not book cold leg: %+v", got)
	}
	if st := f.Stats(); st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}

	// Epoch 2: the cold leg settles and wins. Exactly one leg won.
	f.Tick()
	got, _ = f.Order(id)
	if got.Status != market.Won || got.Region != "cold" {
		t.Fatalf("order = %s in %q, want won in cold", got.Status, got.Region)
	}
	wonLegs := 0
	for _, l := range got.Legs {
		if l.Status == market.Won {
			wonLegs++
		}
	}
	if wonLegs != 1 {
		t.Errorf("%d legs won, want exactly 1 (XOR broken)", wonLegs)
	}
	// After the gossip ticks, the board's cold entry reflects a converged
	// settlement.
	for _, q := range f.Board() {
		if q.Region == "cold" && !q.Clearing {
			t.Error("cold quote still reserve-based after settlement")
		}
	}
}

func TestOrderExhaustsAllLegs(t *testing.T) {
	f := hotCold(t)
	// A limit below even the cold region's cost loses everywhere.
	id, err := f.SubmitProduct("team", "batch-compute", 2, []string{"hot-r1", "cold-r1"}, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	f.Tick() // cold leg loses, failover books hot
	f.Tick() // hot leg loses, no legs left
	got, _ := f.Order(id)
	if got.Status != market.Lost {
		t.Fatalf("order = %s, want lost after exhausting legs", got.Status)
	}
	for _, l := range got.Legs {
		if l.Status == market.Won {
			t.Error("a leg won below cost")
		}
	}
	if st := f.Stats(); st.Lost != 1 {
		t.Errorf("lost = %d, want 1", st.Lost)
	}
}

func TestSettleRegionAdvancesRouting(t *testing.T) {
	f := hotCold(t)
	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"hot-r1", "cold-r1"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SettleRegion("nowhere"); err == nil {
		t.Error("unknown region accepted")
	}
	rec, err := f.SettleRegion("cold")
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Settled != 1 {
		t.Fatalf("record = %+v", rec)
	}
	// The manual settlement advanced the router and gossiped prices.
	got, _ := f.Order(id)
	if got.Status != market.Won || got.Region != "cold" {
		t.Fatalf("order = %s in %q after SettleRegion", got.Status, got.Region)
	}
	for _, q := range f.Board() {
		if q.Region == "cold" && !q.Clearing {
			t.Error("cold quote not clearing after manual settlement")
		}
	}
	// An empty book reports the exchange's no-open-orders error.
	if _, err := f.SettleRegion("cold"); err == nil {
		t.Error("empty-book settlement reported no error")
	}
}

func TestCancelWithdrawsActiveLeg(t *testing.T) {
	f := hotCold(t)
	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Cancel(id); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Order(id)
	if got.Status != market.Cancelled {
		t.Fatalf("status = %s", got.Status)
	}
	if err := f.Cancel(id); err == nil {
		t.Error("double cancel accepted")
	}
	if err := f.Cancel(9999); err == nil {
		t.Error("cancel of unknown order accepted")
	}
	// The regional book must be empty again.
	if n := f.Region("cold").Exchange().OpenOrderCount(); n != 0 {
		t.Errorf("cold open orders = %d after cancel", n)
	}
}

func TestSubmitValidation(t *testing.T) {
	f := hotCold(t)
	if _, err := f.SubmitProduct("team", "no-such-product", 1, []string{"cold-r1"}, 10); err == nil {
		t.Error("unknown product accepted")
	}
	if _, err := f.SubmitProduct("team", "batch-compute", -1, []string{"cold-r1"}, 10); err == nil {
		t.Error("negative quantity accepted")
	}
	if _, err := f.SubmitProduct("team", "batch-compute", 1, nil, 10); err == nil {
		t.Error("empty cluster list accepted")
	}
	if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"mars-r1"}, 10); err == nil {
		t.Error("unknown cluster accepted")
	}
	if _, err := f.SubmitProduct("ghost", "batch-compute", 1, []string{"cold-r1"}, 10); err == nil {
		t.Error("unknown team accepted")
	}
}

func TestAccountsAndBalances(t *testing.T) {
	f := hotCold(t)
	var bal float64
	for _, r := range f.regions {
		b, err := r.ex.Balance("team")
		if err != nil {
			t.Fatal(err)
		}
		bal += b
	}
	if bal != 2e6 { // 1e6 per region
		t.Errorf("balance = %g, want 2e6", bal)
	}
	if err := f.OpenAccount("team"); err == nil {
		t.Error("duplicate account accepted")
	}
	for _, r := range f.regions {
		if teams := r.ex.Teams(); len(teams) != 1 || teams[0] != "team" {
			t.Errorf("%s teams = %v", r.Name(), teams)
		}
	}
	if f.RegionOf("cold-r1") != "cold" || f.RegionOf("nowhere") != "" {
		t.Error("RegionOf wrong")
	}
}

func TestSummaryAndHistoryAggregation(t *testing.T) {
	f := hotCold(t)
	if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 200); err != nil {
		t.Fatal(err)
	}
	f.Tick()
	sums, err := f.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("regions in summary = %d", len(sums))
	}
	var hot, cold RegionSummary
	for _, s := range sums {
		switch s.Region {
		case "hot":
			hot = s
		case "cold":
			cold = s
		}
	}
	if cold.Auctions != 1 || cold.Settled != 1 {
		t.Errorf("cold summary = %+v", cold)
	}
	if hot.Auctions != 0 {
		t.Errorf("hot settled an auction over an empty book")
	}
	if hot.MeanCPUPrice <= cold.MeanCPUPrice {
		t.Errorf("hot CPU price %g not above cold %g", hot.MeanCPUPrice, cold.MeanCPUPrice)
	}
	coldEx, hotEx := regionNamed(t, f, "cold").ex, regionNamed(t, f, "hot").ex
	if len(coldEx.History()) != 1 || len(hotEx.History()) != 0 {
		t.Errorf("history = %d cold, %d hot", len(coldEx.History()), len(hotEx.History()))
	}
	if len(coldEx.Ledger()) == 0 {
		t.Error("empty cold ledger after a settlement")
	}
	if ph := coldEx.PriceHistoryTail(poolOf("cold-r1"), 10); len(ph) != 1 {
		t.Errorf("price history = %v", ph)
	}
}

func TestServeSettlesConcurrently(t *testing.T) {
	f := hotCold(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Serve(ctx, 2*time.Millisecond) }()

	// Hammer the router from several goroutines while Serve ticks both
	// regions: region-local and cross-region orders interleaved.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				clusters := []string{"cold-r1"}
				if i%2 == 0 {
					clusters = []string{"hot-r1", "cold-r1"}
				}
				limit := float64(20 + (g*13+i*7)%80)
				if _, err := f.SubmitProduct("team", "batch-compute", 1, clusters, limit); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Let a few epochs pass so batches settle and failovers route.
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Serve returned %v", err)
	}
	// Drain any in-flight legs deterministically.
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if !ledgerBalanced(f, 1e-6) {
		t.Error("federated ledger unbalanced")
	}
	for _, fo := range f.Orders() {
		won := 0
		for _, l := range fo.Legs {
			if l.Status == market.Won {
				won++
			}
		}
		if won > 1 {
			t.Fatalf("order %d won %d legs (XOR broken)", fo.ID, won)
		}
	}
	if err := f.Serve(context.Background(), 0); err == nil {
		t.Error("non-positive epoch accepted")
	}
}

// TestOrderLookupIsIndexed pins the byID index behind Order and Cancel:
// lookups resolve the right order among many (the router polls order
// state on every leg advance, so this path must not scan the whole
// history), and misses still error.
func TestOrderLookupIsIndexed(t *testing.T) {
	f := hotCold(t)
	var ids []int
	for i := 0; i < 20; i++ {
		id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 100+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		fo, err := f.Order(id)
		if err != nil {
			t.Fatal(err)
		}
		if fo.ID != id || fo.Limit != 100+float64(i) {
			t.Fatalf("Order(%d) = id %d limit %v", id, fo.ID, fo.Limit)
		}
	}
	if _, err := f.Order(999); err == nil {
		t.Error("unknown order id resolved")
	}
	if err := f.Cancel(999); err == nil {
		t.Error("unknown order id cancelled")
	}
	// Cancel through the index still withdraws the regional leg.
	if err := f.Cancel(ids[3]); err != nil {
		t.Fatal(err)
	}
	fo, err := f.Order(ids[3])
	if err != nil || fo.Status != market.Cancelled {
		t.Fatalf("cancelled order = %+v, %v", fo, err)
	}
	// The bounded tail returns the most recently routed orders in order.
	tail := f.OrdersTail(3)
	if len(tail) != 3 || tail[0].ID != ids[17] || tail[2].ID != ids[19] {
		t.Fatalf("OrdersTail(3) = %+v", tail)
	}
	if f.OrdersTail(0) != nil {
		t.Error("non-positive tail limit returned entries")
	}
}

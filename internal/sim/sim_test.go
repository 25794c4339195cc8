package sim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"clustermarket/internal/invariant"
	"clustermarket/internal/resource"
	"clustermarket/internal/trace"
)

// smallConfig keeps test worlds fast while preserving the experiment
// structure.
func smallConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		Clusters:           8,
		MachinesPerCluster: 10,
		Teams:              30,
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{Clusters: 1, Teams: 5}); err == nil {
		t.Error("1 cluster accepted")
	}
	if _, err := NewWorld(Config{Clusters: 4, Teams: -1}); err == nil {
		t.Error("negative teams accepted")
	}
	if _, err := NewSequence(smallConfig(1), 0); err == nil {
		t.Error("empty auction sequence accepted")
	}
}

func TestNewWorldSkewedUtilization(t *testing.T) {
	w, err := NewWorld(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	util := w.Fleet.UtilizationVector(w.Reg)
	lo, hi := 1.0, 0.0
	for _, u := range util {
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if hi < 0.7 {
		t.Errorf("no hot pools: max utilization %v", hi)
	}
	if lo > 0.4 {
		t.Errorf("no cold pools: min utilization %v", lo)
	}
}

func TestRunAuctionEndToEnd(t *testing.T) {
	w, err := NewWorld(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.RunAuction()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Record.Converged {
		t.Fatal("auction did not converge")
	}
	if out.Record.Submitted == 0 {
		t.Fatal("no orders submitted")
	}
	if len(out.Trades) == 0 {
		t.Fatal("no settled trades")
	}
	if w.LastPrices == nil {
		t.Fatal("LastPrices not recorded")
	}
	// The shared invariant kernel replaces the old one-off ledger check:
	// balances, commitments, capacity, and reserve floors too.
	invariant.RequireExchange(t, "after settlement", w.Exchange)
	// A second auction must run off the updated state.
	out2, err := w.RunAuction()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Record.Number != 2 {
		t.Errorf("second auction number = %d", out2.Record.Number)
	}
}

func TestFig2CurvesShape(t *testing.T) {
	curves := Fig2(100)
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 101 {
			t.Errorf("%s: %d points", c.Name, len(c.Points))
		}
		// All curves pass through 1.0 at 50% utilization.
		if p := c.Points[50]; p.Multiple < 0.999 || p.Multiple > 1.001 {
			t.Errorf("%s: multiple at 50%% = %v", c.Name, p.Multiple)
		}
	}
	var buf bytes.Buffer
	RenderFig2(&buf, curves)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFig6CongestedPoolsPriceAboveFixed(t *testing.T) {
	seq, err := NewSequence(smallConfig(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := seq.Fig6()
	if len(d.Rows) != 8*3 {
		t.Fatalf("rows = %d", len(d.Rows))
	}
	hotMean, coldMean := d.CongestionPriceCorrelation(0.75, 0.4)
	// The paper's headline shape: congested pools settle above the former
	// fixed price, idle pools below it.
	if hotMean <= 1.0 {
		t.Errorf("hot pools mean ratio = %v, want > 1", hotMean)
	}
	if coldMean >= 1.0 {
		t.Errorf("cold pools mean ratio = %v, want < 1", coldMean)
	}
	if hotMean <= coldMean {
		t.Errorf("hot %v not above cold %v", hotMean, coldMean)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, d)
	for _, want := range []string{"Figure 6 (CPU)", "Figure 6 (RAM)", "Figure 6 (Disk)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig7BidsLowOffersHigh(t *testing.T) {
	seq, err := NewSequence(smallConfig(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := seq.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) < 4 {
		t.Fatalf("groups = %d", len(d.Groups))
	}
	// The paper's shape: "most bids were for resources in underutilized
	// clusters and most offers were for resources in overutilized
	// clusters". Compare medians dimension by dimension.
	for _, dim := range resource.StandardDimensions {
		buyMed, okBuy := d.MedianFor(dim, trace.Buy)
		sellMed, okSell := d.MedianFor(dim, trace.Sell)
		if !okBuy {
			t.Errorf("%s: no buy group", dim)
			continue
		}
		if !okSell {
			// Sellers may be absent in tiny worlds; skip the comparison.
			continue
		}
		if buyMed >= sellMed {
			t.Errorf("%s: bid median %v not below offer median %v", dim, buyMed, sellMed)
		}
	}
	var buf bytes.Buffer
	RenderFig7(&buf, d)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestTable1PremiumsDecline(t *testing.T) {
	seq, err := NewSequence(smallConfig(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := seq.Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Auction != i+1 {
			t.Errorf("row %d auction = %d", i, r.Auction)
		}
		if r.SettledPct <= 0 || r.SettledPct > 100 {
			t.Errorf("row %d settled = %v", i, r.SettledPct)
		}
		if r.Median < 0 || r.Mean < 0 {
			t.Errorf("row %d negative premium stats", i)
		}
	}
	// The paper's trend: the median premium decreases significantly as
	// bidders learn the market.
	if rows[2].Median >= rows[0].Median {
		t.Errorf("median premium did not decline: %v -> %v", rows[0].Median, rows[2].Median)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("render missing title")
	}
}

func TestScalingLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep is slow")
	}
	d, err := Scaling(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.UserSweep) != 6 || len(d.ResourceSweep) != 6 {
		t.Fatalf("sweep sizes = %d, %d", len(d.UserSweep), len(d.ResourceSweep))
	}
	// Execution time grows with size and the growth is well-described by
	// a line (the Section III.C.4 claim). Wall-clock noise makes exact
	// slopes unstable, so only the coarse shape is asserted.
	if d.UserSweep[5].Seconds <= d.UserSweep[0].Seconds {
		t.Errorf("800 users (%vs) not slower than 25 (%vs)",
			d.UserSweep[5].Seconds, d.UserSweep[0].Seconds)
	}
	if d.UserFit.Slope <= 0 {
		t.Errorf("user fit slope = %v", d.UserFit.Slope)
	}
	if d.ResourceFit.Slope <= 0 {
		t.Errorf("resource fit slope = %v", d.ResourceFit.Slope)
	}
	var buf bytes.Buffer
	RenderScaling(&buf, d)
	if !strings.Contains(buf.String(), "Scaling in users") {
		t.Error("render missing title")
	}
}

func TestBaselineComparison(t *testing.T) {
	rows, err := Baseline(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d (3 baselines + market)", len(rows))
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	mkt, ok := byName["market (clock auction)"]
	if !ok {
		t.Fatal("market row missing")
	}
	fixed, ok := byName["fixed-price-fcfs"]
	if !ok {
		t.Fatal("fixed-price row missing")
	}
	// The market should not be worse on utilization balance than the
	// fixed-price regime (the paper's central claim: fewer shortages and
	// surpluses, more even utilization).
	if mkt.UtilSpread > fixed.UtilSpread*1.05 {
		t.Errorf("market spread %v worse than fixed-price %v", mkt.UtilSpread, fixed.UtilSpread)
	}
	var buf bytes.Buffer
	RenderBaseline(&buf, rows)
	if !strings.Contains(buf.String(), "Allocation mechanism comparison") {
		t.Error("render missing title")
	}
}

func TestMigrationTowardColdPools(t *testing.T) {
	seq, err := NewSequence(smallConfig(9), 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := seq.Migration()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Bought capacity must land predominantly in cold pools — the
	// utilization-weighted reserves make hot pools expensive.
	for _, r := range rows {
		if r.ColdShare <= r.HotShare {
			t.Errorf("auction %d: cold share %v not above hot share %v",
				r.Auction, r.ColdShare, r.HotShare)
		}
	}
	var buf bytes.Buffer
	RenderMigration(&buf, rows)
	if !strings.Contains(buf.String(), "Demand migration") {
		t.Error("render missing title")
	}
}

func TestSyntheticMarketShape(t *testing.T) {
	reg, bids := SyntheticMarket(newRand(1), 50, 20)
	if reg.Len() != 20 {
		t.Errorf("registry = %d pools", reg.Len())
	}
	if len(bids) != 51 {
		t.Errorf("bids = %d", len(bids))
	}
	for _, b := range bids[:50] {
		if err := b.Validate(reg.Len()); err != nil {
			t.Errorf("invalid bid: %v", err)
		}
	}
	// Last bid is the operator's supply.
	if bids[50].Bundles[0].PureDirection() != -1 {
		t.Error("operator bid is not a pure offer")
	}
}

// newRand is a helper for tests needing an explicit source.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestClockProgression(t *testing.T) {
	d, err := ClockProgression(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rounds < 2 {
		t.Fatalf("rounds = %d, expected a multi-round clock", d.Rounds)
	}
	if len(d.Series) != 4 { // top 3 + least-moved
		t.Fatalf("series = %d", len(d.Series))
	}
	for _, s := range d.Series {
		if len(s.Prices) != d.Rounds {
			t.Errorf("%v trajectory has %d points for %d rounds", s.Pool, len(s.Prices), d.Rounds)
		}
		// Prices never decrease along a trajectory.
		for i := 1; i < len(s.Prices); i++ {
			if s.Prices[i] < s.Prices[i-1] {
				t.Fatalf("%v price decreased at round %d", s.Pool, i)
			}
		}
	}
	// The most-contested pool moved strictly more than the least.
	first := d.Series[0]
	last := d.Series[len(d.Series)-1]
	moveOf := func(s ClockSeries) float64 { return s.Prices[len(s.Prices)-1] - s.Prices[0] }
	if moveOf(first) <= moveOf(last) {
		t.Errorf("contested pool moved %v, uncontested %v", moveOf(first), moveOf(last))
	}
	// Excess demand ends no higher than it starts.
	if d.Excess[len(d.Excess)-1] > d.Excess[0] {
		t.Errorf("excess demand grew: %v -> %v", d.Excess[0], d.Excess[len(d.Excess)-1])
	}
	var buf bytes.Buffer
	RenderClockProgression(&buf, d)
	if !strings.Contains(buf.String(), "Clock progression") {
		t.Error("render missing title")
	}
}

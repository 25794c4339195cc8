package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// pilotSeeds are the seeds every paper-pilot figure property must hold
// at: the soak's, and one more fixed before the properties first ran.
var pilotSeeds = []int64{42, 1729}

// eachPilot runs paper-pilot on both backend kinds at every pilot seed
// and hands each report to check as a subtest.
func eachPilot(t *testing.T, check func(t *testing.T, rep *Report)) {
	t.Helper()
	for _, kind := range backendKinds {
		for _, seed := range pilotSeeds {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				check(t, runNamed(t, "paper-pilot", kind, Config{Seed: seed}))
			})
		}
	}
}

// TestPaperPilotSkewedUtilization pins the world the figures start from:
// the hot r1 clusters near ψ 0.78, the cold r3 clusters near 0.18.
func TestPaperPilotSkewedUtilization(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		for _, p := range rep.Epochs[0].Pools {
			want := map[string]float64{"r1": 0.78, "r3": 0.18}[strings.SplitN(p.Pool.Cluster, "-", 2)[0]]
			if want != 0 && (p.Util < want || p.Util > want+0.05) {
				t.Errorf("%v starts at ψ %.3f, want about %.2f", p.Pool, p.Util, want)
			}
		}
	})
}

// TestPaperPilotFig6 is Figure 6's claim: after the first auction,
// congested pools price above their former fixed price, and above idle
// pools, which price below it.
func TestPaperPilotFig6(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		rows := rep.Fig6()
		if len(rows) != numRegions*clustersPerRegion*len(resource.StandardDimensions) {
			t.Fatalf("rows = %d", len(rows))
		}
		hot, idle := CongestionPriceCorrelation(rows)
		if hot <= 1 || idle >= 1 || hot <= idle {
			t.Errorf("mean price ratio: congested %.3f, idle %.3f; want congested > 1 > idle", hot, idle)
		}
	})
}

// TestPaperPilotFig7 is Figure 7's claim: "most bids were for resources
// in underutilized clusters and most offers were for resources in
// overutilized clusters" — in every dimension.
func TestPaperPilotFig7(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		groups, err := rep.Fig7()
		if err != nil {
			t.Fatal(err)
		}
		median := make(map[string]float64)
		for _, g := range groups {
			median[fmt.Sprint(g.Dim, g.Side)] = g.Box.Median
		}
		for _, dim := range resource.StandardDimensions {
			buy, okBuy := median[fmt.Sprint(dim, Buy)]
			sell, okSell := median[fmt.Sprint(dim, Sell)]
			if !okBuy || !okSell {
				t.Errorf("%s: bids present %v, offers present %v", dim, okBuy, okSell)
				continue
			}
			if buy >= sell {
				t.Errorf("%s: bid median percentile %.1f not below offer median %.1f", dim, buy, sell)
			}
		}
	})
}

// TestPaperPilotTable1 is Table I's claim: the median premium falls from
// the first auction to the fourth as bidders learn the market.
func TestPaperPilotTable1(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		rows := rep.Table1()
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i, r := range rows {
			if r.Auction != i+1 || r.SettledPct <= 0 || r.SettledPct > 100 {
				t.Errorf("row %d: %+v", i, r)
			}
		}
		if rows[3].Median >= rows[0].Median {
			t.Errorf("median premium did not fall: %.3f -> %.3f", rows[0].Median, rows[3].Median)
		}
	})
}

// TestPaperPilotMigration is Section V.B's claim: in every auction, more
// of the bought capacity lands in idle pools than in congested ones.
func TestPaperPilotMigration(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		for _, r := range rep.Migration() {
			if r.ColdShare <= r.HotShare {
				t.Errorf("auction %d: idle share %.3f not above congested share %.3f", r.Auction, r.ColdShare, r.HotShare)
			}
		}
	})
}

// TestPaperPilotBaseline is the introduction's claim against the
// fixed-price regime: the market leaves utilization no more uneven.
func TestPaperPilotBaseline(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		rows, err := rep.Baseline()
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]BaselineRow)
		for _, r := range rows {
			byName[r.Mechanism] = r
		}
		mkt, fixed := byName["market (clock auction)"], byName["fixed-price-fcfs"]
		if len(rows) != 4 || mkt.Mechanism == "" || fixed.Mechanism == "" {
			t.Fatalf("rows: %+v", rows)
		}
		if mkt.UtilSpread > 1.05*fixed.UtilSpread {
			t.Errorf("market spread %.3f worse than fixed-price %.3f", mkt.UtilSpread, fixed.UtilSpread)
		}
	})
}

// TestPaperPilotClockProgression is Figure 1 in action: a clock of
// several rounds that moves the contested pools and leaves one alone.
func TestPaperPilotClockProgression(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		d, err := rep.ClockProgression()
		if err != nil {
			t.Fatal(err)
		}
		if d.Rounds < 2 || len(d.Series) != clockTop+1 {
			t.Fatalf("rounds %d, series %d", d.Rounds, len(d.Series))
		}
		for _, s := range d.Series {
			for i := 1; i < len(s.Prices); i++ {
				if s.Prices[i] < s.Prices[i-1] {
					t.Fatalf("%v price fell at round %d", s.Pool, i)
				}
			}
		}
		moved := func(s ClockSeries) float64 { return s.Prices[len(s.Prices)-1] - s.Prices[0] }
		if first, last := d.Series[0], d.Series[clockTop]; moved(first) <= 0 || moved(last) != 0 {
			t.Errorf("most-moved %v moved %v, least-moved %v moved %v", first.Pool, moved(first), last.Pool, moved(last))
		}
		if d.Excess[len(d.Excess)-1] > d.Excess[0] {
			t.Errorf("excess demand grew: %v -> %v", d.Excess[0], d.Excess[len(d.Excess)-1])
		}
	})
}

// TestOffersOnlyFromCongestedHomes pins who sells: every offer and trade
// comes from a team homed in a cluster congested before the epoch, and
// the pilot's hot clusters do sell.
func TestOffersOnlyFromCongestedHomes(t *testing.T) {
	eachPilot(t, func(t *testing.T, rep *Report) {
		sales := 0
		for _, s := range rep.Epochs {
			for _, o := range s.Orders {
				if o.Side == Buy {
					continue
				}
				sales++
				if u := clusterUtil(s.Pools, o.Home); u < congestionThreshold {
					t.Errorf("epoch %d: %s sold from %s at ψ %.3f", s.Epoch, o.User, o.Home, u)
				}
			}
		}
		if sales == 0 {
			t.Error("no team sold")
		}
	})
}

// TestTradesFromSecondEpoch pins the trade rule's timing: sophistication
// starts at 0 and reaches tradeSophistication after one epoch, so no team
// trades in the first.
func TestTradesFromSecondEpoch(t *testing.T) {
	trades := 0
	eachPilot(t, func(t *testing.T, rep *Report) {
		for _, s := range rep.Epochs {
			if s.Epoch == 0 && s.Trades > 0 {
				t.Errorf("%d trades in the first epoch", s.Trades)
			}
			trades += s.Trades
		}
	})
	if trades == 0 {
		t.Error("no team traded in any pilot run")
	}
}

// TestSophisticationRises pins the learning an ask follows.
func TestSophisticationRises(t *testing.T) {
	for age, want := range []float64{0, 0.5, 0.75, 0.875} {
		if got := (&simTeam{age: age}).sophistication(); got != want {
			t.Errorf("age %d: sophistication %v, want %v", age, got, want)
		}
	}
}

// TestOrderUsersCarrySide pins how a resolved order names its side.
func TestOrderUsersCarrySide(t *testing.T) {
	rep := runNamed(t, "paper-pilot", "exchange", Config{Seed: 42})
	for _, s := range rep.Epochs {
		for _, o := range s.Orders {
			_, suffix, _ := strings.Cut(o.User, "/")
			sale := suffix == Sell.String() || suffix == Swap.String()
			if (o.Side == Buy && sale) || (o.Side != Buy && suffix != o.Side.String()) {
				t.Errorf("%s order named %q", o.Side, o.User)
			}
		}
	}
}

func TestSideString(t *testing.T) {
	if Buy.String() != "bid" || Sell.String() != "offer" || Swap.String() != "trade" {
		t.Error("Side.String wrong")
	}
}

// sellWorld is one backend with the engine around it and a single team
// homed on the hot r1-c1, endowed with its background tasks.
func sellWorld(t *testing.T, kind string) (*engine, *simTeam) {
	t.Helper()
	cfg := Config{Seed: 42}
	b, err := NewBackend(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{cfg: cfg, rng: rand.New(rand.NewSource(1)), b: b}
	for _, rn := range b.Regions() {
		e.clusters = append(e.clusters, b.ClustersOf(rn)...)
	}
	tm := &simTeam{name: "seller", home: "r1-c1"}
	if err := b.OpenAccount(tm.name); err != nil {
		t.Fatal(err)
	}
	e.teams = []*simTeam{tm}
	e.endow()
	if len(tm.held) != initialHolding {
		t.Fatalf("endowed with %d tasks", len(tm.held))
	}
	return e, tm
}

// settleSale runs one settlement wave and resolves the world's sales,
// requiring the invariant kernel to stay clean.
func settleSale(t *testing.T, e *engine) Trade {
	t.Helper()
	if err := e.b.Settle(nil); err != nil {
		t.Fatal(err)
	}
	var s EpochSummary
	e.settleOffers(&s)
	for _, v := range e.b.Check() {
		t.Errorf("invariant violated: %s", v)
	}
	if len(s.Orders) != 1 {
		t.Fatalf("%d sales resolved", len(s.Orders))
	}
	return s.Orders[0]
}

// used sums a cluster's task resources.
func used(e *engine, cn string) cluster.Usage {
	var u cluster.Usage
	for _, pt := range e.b.ClusterTasks(cn) {
		req, _ := e.b.TaskReq(pt)
		u = u.Add(req)
	}
	return u
}

// TestPaperPilotRoundsEndToEnd is two paper-pilot epochs end to end, on
// both backend kinds: the first submits orders, converges and settles
// trades with the invariant kernel clean, and the second auctions off
// the state the first left.
func TestPaperPilotRoundsEndToEnd(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			rep := runNamed(t, "paper-pilot", kind, Config{Seed: 42, Epochs: 2})
			for _, v := range rep.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if len(rep.Epochs) != 2 {
				t.Fatalf("%d epochs, want 2", len(rep.Epochs))
			}
			first := rep.Epochs[0]
			if first.Submitted == 0 || first.Converged == 0 || first.Settled == 0 || first.Won == 0 {
				t.Fatalf("degenerate first epoch: submitted=%d converged=%d settled=%d won=%d",
					first.Submitted, first.Converged, first.Settled, first.Won)
			}
			if len(first.Records) != first.Auctions {
				t.Errorf("%d records for %d auctions", len(first.Records), first.Auctions)
			}
			for _, r := range first.Records {
				if !r.Converged || r.Prices == nil {
					t.Errorf("auction %d: converged %v, prices %v", r.Number, r.Converged, r.Prices)
				}
			}
			last := func(s EpochSummary) int {
				n := 0
				for _, r := range s.Records {
					n = max(n, r.Number)
				}
				return n
			}
			if second := rep.Epochs[1]; second.Epoch != 1 || second.Submitted == 0 || last(second) <= last(first) {
				t.Errorf("second epoch %d: submitted %d, auction %d after %d",
					second.Epoch, second.Submitted, last(second), last(first))
			}
		})
	}
}

// TestSellPathSettlesThroughExchange is the sell path end to end, on
// both backend kinds: a won offer evicts exactly the tasks it sold and
// credits the seller what the exchange charged; a lost offer leaves the
// holding, the fleet and the balance as they were; the invariant kernel
// is clean after every settlement.
func TestSellPathSettlesThroughExchange(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			e, tm := sellWorld(t, kind)
			ex := e.b.marketOf(tm.home)
			balance := func() float64 {
				bal, err := ex.Balance(tm.name)
				if err != nil {
					t.Fatal(err)
				}
				return bal
			}

			// Lost: an ask no clock reaches.
			bal0, used0, held0 := balance(), used(e, tm.home), append([]market.PlacedTask(nil), tm.held...)
			var s EpochSummary
			e.book(&s, 0, tm, "", tm.held[:2], 1e9)
			if s.Offers != 1 || len(tm.held) != initialHolding-2 {
				t.Fatalf("offers %d, held %d while the sale is open", s.Offers, len(tm.held))
			}
			if tr := settleSale(t, e); tr.Got != nil {
				t.Fatalf("an ask of 1e9 × fair value won: %+v", tr.Got)
			}
			if len(tm.held) != initialHolding || used(e, tm.home) != used0 || balance() != bal0 {
				t.Errorf("lost offer moved state: held %d, used %v → %v, balance %v → %v",
					len(tm.held), used0, used(e, tm.home), bal0, balance())
			}

			// Won: a low ask at the hot cluster's reserve.
			sold := append([]market.PlacedTask(nil), tm.held[:3]...)
			var want cluster.Usage
			for _, pt := range sold {
				req, _ := e.b.TaskReq(pt)
				want = want.Add(req)
			}
			e.book(&s, 0, tm, "", sold, 0.05)
			id := e.offers[0].id
			tr := settleSale(t, e)
			if tr.Got == nil {
				t.Fatal("a low ask lost")
			}
			for _, q := range tr.Got {
				if q.Pool.Cluster != tm.home || q.Qty != -want.Get(q.Pool.Dim) {
					t.Errorf("sold %v of %v, want %v", q.Qty, q.Pool, -want.Get(q.Pool.Dim))
				}
			}
			for _, pt := range sold {
				if _, ok := e.b.TaskReq(pt); ok {
					t.Errorf("sold task %s still runs", pt.TaskID)
				}
			}
			freed := used0.Sub(used(e, tm.home))
			for _, d := range resource.StandardDimensions {
				if math.Abs(freed.Get(d)-want.Get(d)) > 1e-9 {
					t.Errorf("freed %v, sold %v", freed, want)
				}
			}
			if !equalTasks(tm.held, held0[3:]) {
				t.Errorf("held %v after the sale, want %v", tm.held, held0[3:])
			}
			st, payment, _ := ex.Outcome(id)
			if st != market.Won || payment >= 0 || balance() != bal0-payment {
				t.Errorf("status %s, payment %v, balance %v → %v", st, payment, bal0, balance())
			}
		})
	}
}

// TestTradeMovesQuota pins the trade's two legs: a won trade frees its
// home tasks and places the same resources in the cheapest cluster.
func TestTradeMovesQuota(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			e, tm := sellWorld(t, kind)
			target := e.cheapest(tm.home, nil)
			if target == "" {
				t.Fatal("no cluster to trade into")
			}
			sold := append([]market.PlacedTask(nil), tm.held[:2]...)
			var s EpochSummary
			// A negative ask: the team pays up to the sold part's fair
			// value for the move, so the trade clears at any prices.
			e.book(&s, 0, tm, target, sold, -1)
			tr := settleSale(t, e)
			if s.Trades != 1 || tr.Side != Swap || tr.Got == nil {
				t.Fatalf("trades %d, resolved %+v", s.Trades, tr)
			}
			for _, pt := range sold {
				if _, ok := e.b.TaskReq(pt); ok {
					t.Errorf("traded task %s still runs at home", pt.TaskID)
				}
			}
			moved := 0
			for _, pt := range tm.held {
				if pt.Cluster == target {
					moved++
				}
			}
			if moved == 0 {
				t.Errorf("nothing placed in %s; held %v", target, tm.held)
			}
		})
	}
}

// TestNoOffersWithoutCongestion pins the congestion threshold: a team
// homed on a cold cluster never sells, whatever it holds.
func TestNoOffersWithoutCongestion(t *testing.T) {
	e, tm := sellWorld(t, "exchange")
	tm.home = "r3-c1"
	tm.held = e.b.ClusterTasks(tm.home)[:initialHolding]
	var s EpochSummary
	pools, err := e.b.Pools()
	if err != nil {
		t.Fatal(err)
	}
	e.sell(&s, 0, 1, pools, nil)
	if s.Offers != 0 || s.Trades != 0 || len(e.offers) != 0 {
		t.Errorf("a cold-cluster team sold: %+v", s)
	}
}

func equalTasks(a, b []market.PlacedTask) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

package scenario

import (
	"math"
	"slices"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// A selling scenario's teams follow the pilot's rules (Section V.B–C;
// DESIGN.md, "The paper-pilot scenario").
const (
	// congestionThreshold is the home-cluster ψ, averaged over its pools,
	// at or above which a team sells.
	congestionThreshold = 0.7
	// sophisticationGain is the share of a team's gap to full
	// sophistication that closes with every epoch it spends in the market.
	sophisticationGain = 0.5
	// outlierFraction of a selling scenario's buy orders pay an extreme
	// premium to stay put (Figure 7's premium payers).
	outlierFraction = 0.08
	// A team at least tradeSophistication sophisticated trades instead of
	// offering with probability tradeChance, moving tradeShare of its
	// home holding to the cheapest cluster.
	tradeSophistication = 0.5
	tradeChance         = 0.15
	tradeShare          = 0.3
	// initialHolding is how many of its home cluster's background tasks
	// each of a selling scenario's first teams holds when the market
	// opens.
	initialHolding = 6
)

// Side is which way an order moved quota, as Figure 7 splits it.
type Side int

const (
	// Buy orders only demand: every product order.
	Buy Side = iota
	// Sell orders offer placed quota back.
	Sell
	// Swap orders sell quota in one cluster to buy it in another.
	Swap
)

func (s Side) String() string { return [...]string{"bid", "offer", "trade"}[s] }

// PoolQty is a quantity of one pool: positive bought, negative sold.
type PoolQty struct {
	Pool resource.Pool
	Qty  float64
}

// Trade is one order an epoch resolved.
type Trade struct {
	Side Side
	// User names the bid: the team, then its product or side.
	User string
	// Home is the team's home cluster when it bid.
	Home string
	// Limit and Bundles are the bid: its XOR alternatives, a product
	// order's home-cluster request first.
	Limit   float64
	Bundles [][]PoolQty
	// Got is what the order settled, nil unless it won.
	Got []PoolQty
}

// offer is one sale or trade awaiting settlement, booked as id by the
// market of its home cluster.
type offer struct {
	id    int
	team  *simTeam
	order Trade
	// sold are the seller's tasks the order frees when it wins, withheld
	// from the team's holding until it resolves.
	sold []market.PlacedTask
}

// endow gives each team initialHolding of its home cluster's background
// tasks, the next ones no other team holds: the quota the pilot's teams
// held under the fixed prices the market replaced.
func (e *engine) endow() {
	unheld := make(map[string][]market.PlacedTask)
	for _, tm := range e.teams {
		free, ok := unheld[tm.home]
		if !ok {
			free = e.b.ClusterTasks(tm.home)
		}
		n := min(initialHolding, len(free))
		tm.held, unheld[tm.home] = append([]market.PlacedTask(nil), free[:n]...), free[n:]
	}
}

// sophistication is 0 for a new team and closes sophisticationGain of
// the remaining gap with every epoch: an offer's ask rises with it.
func (t *simTeam) sophistication() float64 {
	return 1 - math.Pow(1-sophisticationGain, float64(t.age))
}

// sell books the epoch's offers and trades. A team whose home cluster is
// congested before the epoch's orders, and that holds placed tasks
// there, sells a share of them:
//   - a sophisticated team trades with probability tradeChance: it sells
//     tradeShare of its home holding for the same resources in the
//     cheapest live cluster of its market, insisting on pocketing 10% of
//     the sold part's fair value;
//   - otherwise, with probability p, it offers 20–70% of its home
//     holding at an ask of 5–50% of fair value plus 40% of its
//     sophistication, at most 95%. Sellers low-ball, "confident that
//     there will be ample competition" (Section V.C).
func (e *engine) sell(s *EpochSummary, epoch int, p float64, pools []PoolState, down map[string]bool) {
	for _, tm := range e.teams {
		if down[e.regionOfCluster(tm.home)] || clusterUtil(pools, tm.home) < congestionThreshold {
			continue
		}
		// A task another event evicted (a demand ebb) is no longer held.
		var home, live []market.PlacedTask
		for _, pt := range tm.held {
			if _, ok := e.b.TaskReq(pt); ok {
				live = append(live, pt)
				if pt.Cluster == tm.home {
					home = append(home, pt)
				}
			}
		}
		tm.held = live
		if len(home) == 0 {
			continue
		}
		soph := tm.sophistication()
		target := ""
		if soph >= tradeSophistication && e.rng.Float64() < tradeChance {
			target = e.cheapest(tm.home, down)
		}
		share, ask := tradeShare, 0.1
		if target == "" {
			if e.rng.Float64() >= p {
				continue
			}
			// Each product is rounded before the add (make fma-check).
			share = 0.2 + float64(e.rng.Float64()*0.5)
			ask = math.Min(0.05+float64(e.rng.Float64()*0.45)+float64(0.4*soph), 0.95)
		}
		e.book(s, epoch, tm, target, home[:int(math.Ceil(share*float64(len(home))))], ask)
	}
}

// book submits the team's sale of the sold tasks — whole tasks, so a won
// sale evicts exactly what it sold — at ask × their fair value, and
// withholds them from its holding until the sale resolves. With a target
// cluster the sale is a trade that also buys the same resources there,
// and the team pockets at least ask × fair value.
func (e *engine) book(s *EpochSummary, epoch int, tm *simTeam, target string, sold []market.PlacedTask, ask float64) {
	var qty cluster.Usage
	for _, pt := range sold {
		req, _ := e.b.TaskReq(pt)
		qty = qty.Add(req)
	}
	reg := e.b.RegistryFor(tm.home)
	v := reg.Zero()
	for _, d := range resource.StandardDimensions {
		i, _ := reg.Index(resource.Pool{Cluster: tm.home, Dim: d})
		v[i] = -qty.Get(d)
		if target != "" {
			j, _ := reg.Index(resource.Pool{Cluster: target, Dim: d})
			v[j] = qty.Get(d)
		}
	}
	side := Sell
	if target != "" {
		side = Swap
	}
	order := Trade{Side: side, User: tm.name + "/" + side.String(), Home: tm.home, Limit: -ask * unitCost(qty),
		Bundles: [][]PoolQty{poolQty(reg, v)}}
	id, err := e.b.SubmitBid(tm.home, tm.name, &core.Bid{User: order.User, Bundles: []resource.Vector{v}, Limit: order.Limit})
	if err != nil {
		s.Rejected++
		e.cfg.Telemetry.Publish(EventSource, EvSubmitRejected, &RejectEvent{Epoch: epoch, Kind: side.String()})
		return
	}
	if side == Sell {
		s.Offers++
	} else {
		s.Trades++
	}
	tm.held = withoutTasks(tm.held, sold)
	e.offers = append(e.offers, offer{id: id, team: tm, order: order, sold: sold})
}

// settleOffers resolves the offers and trades the settlement wave
// decided: a winner's sold tasks are evicted and a trade's purchase
// placed; a loser's tasks return to its holding.
func (e *engine) settleOffers(s *EpochSummary) {
	kept := e.offers[:0]
	for _, o := range e.offers {
		st, tasks, got := e.b.PlaceBid(o.order.Home, o.id)
		if st == market.Open {
			kept = append(kept, o)
			continue
		}
		if st == market.Won {
			o.order.Got = got
			e.b.Evict(o.sold)
			o.team.held = append(o.team.held, tasks...)
		} else {
			o.team.held = append(o.sold, o.team.held...)
		}
		s.Orders = append(s.Orders, o.order)
	}
	e.offers = kept
}

// cheapest returns the live cluster other than home, held by home's
// market, with the lowest mean reserve price, or "" when there is none.
func (e *engine) cheapest(home string, down map[string]bool) string {
	reg := e.b.RegistryFor(home)
	prices, err := e.b.ReservePrices(e.regionOfCluster(home))
	if err != nil {
		return ""
	}
	best, bestCost := "", math.Inf(1)
	for _, cn := range e.clusters {
		if cn == home || down[e.regionOfCluster(cn)] || e.b.RegistryFor(cn) != reg {
			continue
		}
		idx := reg.ClusterPools(cn)
		var sum float64
		for _, i := range idx {
			sum += prices[i]
		}
		if c := sum / float64(len(idx)); c < bestCost {
			best, bestCost = cn, c
		}
	}
	return best
}

// clusterUtil averages a cluster's pool utilizations.
func clusterUtil(pools []PoolState, cn string) float64 {
	var sum, n float64
	for _, p := range pools {
		if p.Pool.Cluster == cn {
			sum, n = sum+p.Util, n+1
		}
	}
	return sum / n
}

// withoutTasks returns held minus the given tasks, in held's order.
func withoutTasks(held, drop []market.PlacedTask) []market.PlacedTask {
	return slices.DeleteFunc(slices.Clone(held), func(pt market.PlacedTask) bool { return slices.Contains(drop, pt) })
}

// coverAt is a resource cover placed in one cluster, by pool.
func coverAt(cn string, u cluster.Usage) []PoolQty {
	out := make([]PoolQty, 0, len(resource.StandardDimensions))
	for _, d := range resource.StandardDimensions {
		out = append(out, PoolQty{Pool: resource.Pool{Cluster: cn, Dim: d}, Qty: u.Get(d)})
	}
	return out
}

// poolQty lists a vector's non-zero entries by pool, in registry order.
func poolQty(reg *resource.Registry, v resource.Vector) []PoolQty {
	var out []PoolQty
	for i, q := range v {
		if q != 0 {
			out = append(out, PoolQty{Pool: reg.Pool(i), Qty: q})
		}
	}
	return out
}

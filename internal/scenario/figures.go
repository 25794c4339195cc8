package scenario

import (
	"math"
	"sort"

	"clustermarket/internal/baseline"
	"clustermarket/internal/core"
	"clustermarket/internal/resource"
	"clustermarket/internal/stats"
)

// The paper's evaluation (Section V) as views of a Report: each reads
// the pools, auction records and resolved orders a run keeps beside its
// summary, on either backend kind. The paper-pilot scenario is the run
// they are drawn from (cmd/marketsim figures).

// A pool is congested at ψ ≥ congestedPsi and idle at ψ ≤ idlePsi, as
// Figure 6 and the migration table split them.
const congestedPsi, idlePsi = 0.75, 0.4

// Fig6Row is one pool's ψ before the first epoch and its price after
// it, as a multiple of its former fixed price.
type Fig6Row struct {
	Pool        resource.Pool
	Util, Ratio float64
}

// Fig6 is Figure 6: every pool's first clearing price over its cost.
func (r *Report) Fig6() []Fig6Row {
	var rows []Fig6Row
	for _, p := range r.Epochs[0].Pools {
		rows = append(rows, Fig6Row{Pool: p.Pool, Util: p.Util, Ratio: p.Price / p.Cost})
	}
	return rows
}

// CongestionPriceCorrelation is the evidence behind Figure 6: the mean
// ratio over congested pools and over idle ones.
func CongestionPriceCorrelation(rows []Fig6Row) (hot, idle float64) {
	var hots, idles []float64
	for _, row := range rows {
		switch {
		case row.Util >= congestedPsi:
			hots = append(hots, row.Ratio)
		case row.Util <= idlePsi:
			idles = append(idles, row.Ratio)
		}
	}
	return stats.Mean(hots), stats.Mean(idles)
}

// Fig7Group is one box of Figure 7: the utilization percentiles, among
// same-dimension pools before the epoch, of the pools where one side's
// settled quantities landed.
type Fig7Group struct {
	Dim  resource.Dimension
	Side Side
	Box  stats.Boxplot
}

// Fig7 is Figure 7: bought quantities (Buy) against sold ones (Sell),
// dimension by dimension, over every epoch.
func (r *Report) Fig7() ([]Fig7Group, error) {
	perc := make(map[resource.Dimension][2][]float64)
	for _, s := range r.Epochs {
		pop := make(map[resource.Dimension][]float64)
		util := make(map[resource.Pool]float64)
		for _, p := range s.Pools {
			pop[p.Pool.Dim] = append(pop[p.Pool.Dim], p.Util)
			util[p.Pool] = p.Util
		}
		for _, o := range s.Orders {
			for _, q := range o.Got {
				side := Buy
				if q.Qty < 0 {
					side = Sell
				}
				sides := perc[q.Pool.Dim]
				sides[side] = append(sides[side], stats.PercentileRank(pop[q.Pool.Dim], util[q.Pool]))
				perc[q.Pool.Dim] = sides
			}
		}
	}
	var groups []Fig7Group
	for _, dim := range resource.StandardDimensions {
		for _, side := range []Side{Buy, Sell} {
			vals := perc[dim][side]
			if len(vals) == 0 {
				continue
			}
			box, err := stats.NewBoxplot(vals)
			if err != nil {
				return nil, err
			}
			groups = append(groups, Fig7Group{Dim: dim, Side: side, Box: box})
		}
	}
	return groups, nil
}

// Table1Row is one row of Table I.
type Table1Row struct {
	Auction                  int
	Median, Mean, SettledPct float64
}

// Table1 is Table I: the premium γ_u of every settled order, per epoch.
func (r *Report) Table1() []Table1Row {
	var rows []Table1Row
	for _, s := range r.Epochs {
		var premiums []float64
		submitted, settled := 0, 0
		for _, rec := range s.Records {
			premiums = append(premiums, rec.Premiums...)
			submitted += rec.Submitted
			settled += rec.Settled
		}
		row := Table1Row{Auction: s.Epoch + 1, Median: s.MedianPremium, Mean: stats.Mean(premiums)}
		if submitted > 0 {
			row.SettledPct = 100 * float64(settled) / float64(submitted)
		}
		rows = append(rows, row)
	}
	return rows
}

// MigrationRow is where one epoch's bought capacity landed.
type MigrationRow struct {
	Auction int
	// ColdShare and HotShare split the bought quantity by the destination
	// pool's ψ before the epoch: idle and congested.
	ColdShare, HotShare float64
	// Movers counts won product orders that landed outside the team's
	// home cluster.
	Movers int
	// UtilSpread is the coefficient of variation of pool utilization
	// after the epoch.
	UtilSpread float64
}

// Migration is Section V.B's demand shift, epoch by epoch.
func (r *Report) Migration() []MigrationRow {
	var rows []MigrationRow
	for _, s := range r.Epochs {
		util := make(map[resource.Pool]float64)
		var post []float64
		for _, p := range s.Pools {
			util[p.Pool] = p.Util
			post = append(post, p.PostUtil)
		}
		row := MigrationRow{Auction: s.Epoch + 1, UtilSpread: stats.CoefficientOfVariation(post)}
		var cold, hot, total float64
		for _, o := range s.Orders {
			for _, q := range o.Got {
				if q.Qty <= 0 {
					continue
				}
				total += q.Qty
				switch u := util[q.Pool]; {
				case u <= idlePsi:
					cold += q.Qty
				case u >= congestedPsi:
					hot += q.Qty
				}
			}
			if o.Side == Buy && len(o.Got) > 0 && o.Got[0].Pool.Cluster != o.Home {
				row.Movers++
			}
		}
		if total > 0 {
			row.ColdShare, row.HotShare = cold/total, hot/total
		}
		rows = append(rows, row)
	}
	return rows
}

// marketableFraction is the share of a pool's free capacity the
// exchange offers each auction (market.Config's default).
const marketableFraction = 0.8

// BaselineRow compares one mechanism's shortage, surplus and
// utilization imbalance.
type BaselineRow struct {
	Mechanism                                 string
	Shortage, Surplus, UtilSpread, SettledPct float64
}

// Baseline serves the first epoch's product orders through each
// traditional allocator — which sees only each order's home-cluster
// request, with no substitution and no prices, against the marketable
// free capacity — and sets the market's own first epoch beside them.
func (r *Report) Baseline() ([]BaselineRow, error) {
	s := r.Epochs[0]
	reg, vec := poolSpace(s.Pools)
	capacity := reg.Zero()
	var post []float64
	for i, p := range s.Pools {
		capacity[i] = p.Cap * (1 - p.Util) * marketableFraction
		post = append(post, p.PostUtil)
	}
	var reqs []baseline.Request
	bought, unmet, sold := reg.Zero(), reg.Zero(), reg.Zero()
	wins := 0
	for _, o := range s.Orders {
		got := vec(o.Got)
		sold.AddInto(got.NegativePart().Neg())
		if o.Side != Buy {
			continue
		}
		reqs = append(reqs, baseline.Request{Team: o.User, Demand: vec(o.Bundles[0]), Priority: o.Limit})
		if o.Got == nil {
			unmet.AddInto(vec(o.Bundles[0]))
			continue
		}
		wins++
		bought.AddInto(got.PositivePart())
	}
	var rows []BaselineRow
	for _, alloc := range baseline.Allocators() {
		out, err := alloc.Allocate(capacity, reqs)
		if err != nil {
			return nil, err
		}
		served := 0
		for _, a := range out.Allocations {
			if a != nil && !a.IsZero() {
				served++
			}
		}
		rows = append(rows, BaselineRow{
			Mechanism: alloc.Name(), Shortage: out.ShortageRate(), Surplus: out.SurplusRate(),
			UtilSpread: out.UtilizationSpread(), SettledPct: 100 * float64(served) / float64(len(reqs)),
		})
	}
	// The market's supply is the operator's marketable capacity plus what
	// teams sold; its demand is the product orders.
	mkt := BaselineRow{Mechanism: "market (clock auction)", UtilSpread: stats.CoefficientOfVariation(post),
		SettledPct: 100 * float64(wins) / float64(len(reqs))}
	if d := bought.Sum() + unmet.Sum(); d > 0 {
		mkt.Shortage = unmet.Sum() / d
	}
	if supply := capacity.Sum() + sold.Sum(); supply > 0 {
		mkt.Surplus = math.Max(0, supply-bought.Sum()) / supply
	}
	return append(rows, mkt), nil
}

// ClockSeries is one pool's price, round by round.
type ClockSeries struct {
	Pool   resource.Pool
	Prices []float64
}

// ClockProgressionData is the clock of Figure 1 in action.
type ClockProgressionData struct {
	Rounds int
	// Series holds the clockTop most-moved pools, then the least-moved.
	Series []ClockSeries
	// Excess is the total positive excess demand of each round.
	Excess []float64
}

// clockTop is the number of most-moved pools the progression plots, and
// clockSupply the share of the free capacity the operator offers in it.
const (
	clockTop    = 3
	clockSupply = 0.05
)

// ClockProgression re-clears the first epoch's bids on one planet-wide
// clock from its reserve prices, recording every round. The operator
// offers clockSupply of each pool's free capacity instead of the
// exchange's marketableFraction: the figure shows the clock ascending
// under contention, which an amply supplied market settles in round one.
func (r *Report) ClockProgression() (*ClockProgressionData, error) {
	s := r.Epochs[0]
	reg, vec := poolSpace(s.Pools)
	start, supply := reg.Zero(), reg.Zero()
	for i, p := range s.Pools {
		start[i] = p.Reserve
		supply[i] = -clockSupply * p.Cap * (1 - p.Util)
	}
	var bids []*core.Bid
	for _, o := range s.Orders {
		b := &core.Bid{User: o.User, Limit: o.Limit}
		for _, bundle := range o.Bundles {
			b.Bundles = append(b.Bundles, vec(bundle))
		}
		bids = append(bids, b)
	}
	bids = append(bids, &core.Bid{User: "operator", Limit: -1e-6, Bundles: []resource.Vector{supply}})
	a, err := core.NewAuction(reg, bids, core.Config{Start: start, RecordHistory: true})
	if err != nil {
		return nil, err
	}
	res, err := a.Run()
	if err != nil {
		return nil, err
	}
	d := &ClockProgressionData{Rounds: res.Rounds}
	for _, h := range res.History {
		d.Excess = append(d.Excess, h.ExcessDemand.PositivePart().Sum())
	}
	// Rank pools by total movement, most first; ties keep pool order.
	last := res.History[len(res.History)-1].Prices
	order := make([]int, reg.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return last[order[a]]-start[order[a]] > last[order[b]]-start[order[b]]
	})
	for _, i := range append(order[:clockTop:clockTop], order[len(order)-1]) {
		cs := ClockSeries{Pool: reg.Pool(i)}
		for _, h := range res.History {
			cs.Prices = append(cs.Prices, h.Prices[i])
		}
		d.Series = append(d.Series, cs)
	}
	return d, nil
}

// poolSpace builds a registry over the pools, in order, and a function
// that lays pool quantities out as a vector over it.
func poolSpace(pools []PoolState) (*resource.Registry, func([]PoolQty) resource.Vector) {
	reg := resource.NewRegistry()
	for _, p := range pools {
		reg.Add(p.Pool)
	}
	return reg, func(qs []PoolQty) resource.Vector {
		v := reg.Zero()
		for _, q := range qs {
			i, _ := reg.Index(q.Pool)
			v[i] += q.Qty
		}
		return v
	}
}

package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"clustermarket/internal/baseline"
	"clustermarket/internal/chart"
	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/stats"
	"clustermarket/internal/trace"
)

// ---------------------------------------------------------------------
// FIG2 — utilization-weighted pricing curves (Figure 2).
// ---------------------------------------------------------------------

// Fig2Curve is one named weighting-function series.
type Fig2Curve struct {
	Name   string
	Points []reserve.CurvePoint
}

// Fig2 samples the paper's three example weighting curves.
func Fig2(samples int) []Fig2Curve {
	return []Fig2Curve{
		{Name: "phi1(x) = exp(2(x-0.5))", Points: reserve.Curve(reserve.ExpSteep, samples)},
		{Name: "phi2(x) = exp(x-0.5)", Points: reserve.Curve(reserve.ExpMild, samples)},
		{Name: "phi3(x) = 1/(1.5-x)", Points: reserve.Curve(reserve.Hyperbolic, samples)},
	}
}

// RenderFig2 writes the Figure 2 line plot.
func RenderFig2(w io.Writer, curves []Fig2Curve) {
	series := make([]chart.Series, 0, len(curves))
	for _, c := range curves {
		s := chart.Series{Name: c.Name}
		for _, p := range c.Points {
			s.X = append(s.X, p.Utilization)
			s.Y = append(s.Y, p.Multiple)
		}
		series = append(series, s)
	}
	fmt.Fprint(w, chart.LinePlot(
		"Figure 2: utilization-weighted pricing curves (x: utilization %, y: price multiple)",
		72, 20, series...))
}

// ---------------------------------------------------------------------
// FIG6 — change in resource prices after auction (Figure 6).
// ---------------------------------------------------------------------

// Fig6Row is the settlement price of one pool as a multiple of the former
// fixed price.
type Fig6Row struct {
	Cluster        string
	Dim            resource.Dimension
	Ratio          float64
	PreUtilization float64
}

// Fig6Data holds the full figure.
type Fig6Data struct {
	Rows []Fig6Row
}

// Fig6 reports every pool's settlement price in the first auction as a
// ratio over the former fixed price.
func (s *Sequence) Fig6() *Fig6Data {
	w, out := s.World, s.Outcomes[0]
	d := &Fig6Data{}
	for i := 0; i < w.Reg.Len(); i++ {
		p := w.Reg.Pool(i)
		if p.Dim == resource.Network {
			continue
		}
		d.Rows = append(d.Rows, Fig6Row{
			Cluster:        p.Cluster,
			Dim:            p.Dim,
			Ratio:          out.Record.Prices[i] / w.FixedPrices[i],
			PreUtilization: out.PreUtilization[i],
		})
	}
	return d
}

// CongestionPriceCorrelation returns the correlation evidence behind the
// figure: mean ratio over congested pools (ψ ≥ hot) and idle pools
// (ψ ≤ cold).
func (d *Fig6Data) CongestionPriceCorrelation(hot, cold float64) (hotMean, coldMean float64) {
	var hots, colds []float64
	for _, r := range d.Rows {
		switch {
		case r.PreUtilization >= hot:
			hots = append(hots, r.Ratio)
		case r.PreUtilization <= cold:
			colds = append(colds, r.Ratio)
		}
	}
	return stats.Mean(hots), stats.Mean(colds)
}

// RenderFig6 writes a grouped bar chart of price ratios per cluster.
func RenderFig6(w io.Writer, d *Fig6Data) {
	byDim := map[resource.Dimension][]chart.Bar{}
	for _, r := range d.Rows {
		byDim[r.Dim] = append(byDim[r.Dim], chart.Bar{
			Label: fmt.Sprintf("%s (psi=%.0f%%)", r.Cluster, 100*r.PreUtilization),
			Value: r.Ratio,
		})
	}
	for _, dim := range resource.StandardDimensions {
		fmt.Fprint(w, chart.BarChart(
			fmt.Sprintf("Figure 6 (%s): market price / former fixed price, '|' marks 1.0", dim),
			48, 1.0, byDim[dim]))
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// FIG7 — utilization percentiles of settled transactions (Figure 7).
// ---------------------------------------------------------------------

// Fig7Group is one boxplot column: a dimension × side combination.
type Fig7Group struct {
	Dim  resource.Dimension
	Side trace.Side
	Box  stats.Boxplot
}

// Fig7Data carries the six groups of the figure.
type Fig7Data struct {
	Groups []Fig7Group
}

// Fig7 computes, for every settled trade and dimension, the utilization
// percentile (among same-dimension pools, pre-auction) of the pool where
// the trade landed — bids and offers separately, as in Figure 7.
func (s *Sequence) Fig7() (*Fig7Data, error) {
	w := s.World
	perc := map[resource.Dimension]map[trace.Side][]float64{}
	for _, dim := range resource.StandardDimensions {
		perc[dim] = map[trace.Side][]float64{}
	}
	for _, out := range s.Outcomes {
		// Population per dimension: utilization of same-dimension pools.
		pop := map[resource.Dimension][]float64{}
		for i := 0; i < w.Reg.Len(); i++ {
			p := w.Reg.Pool(i)
			pop[p.Dim] = append(pop[p.Dim], out.PreUtilization[i])
		}
		for _, tr := range out.Trades {
			for _, pi := range sortedPoolQtyIndices(tr.PoolQty) {
				q := tr.PoolQty[pi]
				p := w.Reg.Pool(pi)
				if p.Dim == resource.Network {
					continue
				}
				rank := stats.PercentileRank(pop[p.Dim], out.PreUtilization[pi])
				side := trace.Buy
				if q < 0 {
					side = trace.Sell
				}
				perc[p.Dim][side] = append(perc[p.Dim][side], rank)
			}
		}
	}
	d := &Fig7Data{}
	for _, dim := range resource.StandardDimensions {
		for _, side := range []trace.Side{trace.Buy, trace.Sell} {
			vals := perc[dim][side]
			if len(vals) == 0 {
				continue
			}
			box, err := stats.NewBoxplot(vals)
			if err != nil {
				return nil, err
			}
			d.Groups = append(d.Groups, Fig7Group{Dim: dim, Side: side, Box: box})
		}
	}
	return d, nil
}

// MedianFor returns the median percentile of one group, with ok=false
// when the group is missing.
func (d *Fig7Data) MedianFor(dim resource.Dimension, side trace.Side) (float64, bool) {
	for _, g := range d.Groups {
		if g.Dim == dim && g.Side == side {
			return g.Box.Median, true
		}
	}
	return 0, false
}

// RenderFig7 writes the boxplot panel.
func RenderFig7(w io.Writer, d *Fig7Data) {
	groups := make([]chart.BoxGroup, 0, len(d.Groups))
	for _, g := range d.Groups {
		label := fmt.Sprintf("%s %ss", g.Dim, g.Side)
		groups = append(groups, chart.BoxGroup{Label: label, Box: g.Box})
	}
	fmt.Fprint(w, chart.BoxplotChart(
		"Figure 7: utilization percentiles of resources in settled transactions",
		24, 0, 100, groups))
}

// ---------------------------------------------------------------------
// TAB1 — bid premium statistics (Table I).
// ---------------------------------------------------------------------

// Table1Row mirrors one row of Table I.
type Table1Row struct {
	Auction    int
	Median     float64
	Mean       float64
	SettledPct float64
}

// Table1 reports the γ_u premium statistics per auction.
func (s *Sequence) Table1() []Table1Row {
	var rows []Table1Row
	for _, out := range s.Outcomes {
		rows = append(rows, Table1Row{
			Auction:    out.Record.Number,
			Median:     out.Record.PremiumMedian(),
			Mean:       out.Record.PremiumMean(),
			SettledPct: 100 * out.Record.SettledFraction(),
		})
	}
	return rows
}

// RenderTable1 writes the table in the paper's format.
func RenderTable1(w io.Writer, rows []Table1Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Auction),
			fmt.Sprintf("%.4f", r.Median),
			fmt.Sprintf("%.4f", r.Mean),
			fmt.Sprintf("%.1f%%", r.SettledPct),
		})
	}
	fmt.Fprint(w, chart.Table("Table I: bid premium statistics",
		[]string{"Auction", "Median of gamma_u", "Mean of gamma_u", "% Settled"}, cells))
}

// ---------------------------------------------------------------------
// SCALE — runtime scaling of the clock auction (Section III.C.4).
// ---------------------------------------------------------------------

// ScalingPoint is one measured auction size.
type ScalingPoint struct {
	Users     int
	Resources int
	// Seconds is the wall-clock time of one full auction run.
	Seconds float64
	Rounds  int
}

// ScalingData carries both sweeps and their linear fits.
type ScalingData struct {
	UserSweep     []ScalingPoint
	ResourceSweep []ScalingPoint
	UserFit       stats.LinearFit
	ResourceFit   stats.LinearFit
}

// SyntheticMarket builds a random pure-buyer market with one operator
// seller over nPools single-dimension pools, for controlled scaling runs.
func SyntheticMarket(rng *rand.Rand, nUsers, nPools int) (*resource.Registry, []*core.Bid) {
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
		bids = append(bids, &core.Bid{
			User:    fmt.Sprintf("u%d", u),
			Bundles: bundles,
			Limit:   float64(rng.Intn(150) + 25),
		})
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

// scalingRounds fixes the clock length for scaling measurements so every
// point does identical rounds: total auction length depends on prices,
// not size, while the paper's linearity claim is about the work done per
// round (one proxy sweep over U users × R pools). The count is large
// because sparse proxy evaluation made rounds cheap enough that short
// clocks drown in scheduler noise.
const scalingRounds = 500

// scalingReps repeats each measurement, keeping the minimum (standard
// micro-benchmark practice to shed GC and scheduler interference).
const scalingReps = 3

// timeAuction runs one synthetic auction for exactly scalingRounds rounds
// (buyer limits are made effectively unbounded, so demand never clears)
// and reports its wall time.
func timeAuction(seed int64, users, pools int) (ScalingPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	reg, bids := SyntheticMarket(rng, users, pools)
	for _, b := range bids {
		if b.Class() == core.PureBuyer {
			b.Limit = 1e15
		}
	}
	start := reg.Zero()
	for i := range start {
		start[i] = 0.5
	}
	point := ScalingPoint{Users: users, Resources: pools}
	for rep := 0; rep < scalingReps; rep++ {
		a, err := core.NewAuction(reg, bids, core.Config{
			Start:     start.Clone(),
			Policy:    core.Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
			MaxRounds: scalingRounds,
		})
		if err != nil {
			return ScalingPoint{}, err
		}
		t0 := time.Now()
		res, err := a.Run()
		if err != nil && !errors.Is(err, core.ErrNoConvergence) {
			return ScalingPoint{}, err
		}
		elapsed := time.Since(t0).Seconds()
		if rep == 0 || elapsed < point.Seconds {
			point.Seconds = elapsed
		}
		point.Rounds = res.Rounds
	}
	return point, nil
}

// Scaling sweeps user count (at fixed 100 pools) and pool count (at fixed
// 100 users) and fits lines, verifying the paper's linear-scaling claim.
func Scaling(seed int64) (*ScalingData, error) {
	d := &ScalingData{}
	for _, u := range []int{25, 50, 100, 200, 400, 800} {
		p, err := timeAuction(seed, u, 100)
		if err != nil {
			return nil, err
		}
		d.UserSweep = append(d.UserSweep, p)
	}
	for _, r := range []int{12, 25, 50, 100, 200, 384} {
		p, err := timeAuction(seed, 100, r)
		if err != nil {
			return nil, err
		}
		d.ResourceSweep = append(d.ResourceSweep, p)
	}
	var xs, ys []float64
	for _, p := range d.UserSweep {
		xs = append(xs, float64(p.Users))
		ys = append(ys, p.Seconds)
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	d.UserFit = fit
	xs, ys = nil, nil
	for _, p := range d.ResourceSweep {
		xs = append(xs, float64(p.Resources))
		ys = append(ys, p.Seconds)
	}
	fit, err = stats.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	d.ResourceFit = fit
	return d, nil
}

// RenderScaling writes the two sweeps and their fits.
func RenderScaling(w io.Writer, d *ScalingData) {
	var cells [][]string
	for _, p := range d.UserSweep {
		cells = append(cells, []string{
			fmt.Sprintf("%d", p.Users), fmt.Sprintf("%d", p.Resources),
			fmt.Sprintf("%.4f", p.Seconds), fmt.Sprintf("%d", p.Rounds),
		})
	}
	fmt.Fprint(w, chart.Table("Scaling in users (R=100)",
		[]string{"Users", "Pools", "Seconds", "Rounds"}, cells))
	fmt.Fprintf(w, "linear fit: %.3g s/user, R^2 = %.3f\n\n", d.UserFit.Slope, d.UserFit.R2)

	cells = nil
	for _, p := range d.ResourceSweep {
		cells = append(cells, []string{
			fmt.Sprintf("%d", p.Users), fmt.Sprintf("%d", p.Resources),
			fmt.Sprintf("%.4f", p.Seconds), fmt.Sprintf("%d", p.Rounds),
		})
	}
	fmt.Fprint(w, chart.Table("Scaling in resource pools (U=100)",
		[]string{"Users", "Pools", "Seconds", "Rounds"}, cells))
	fmt.Fprintf(w, "linear fit: %.3g s/pool, R^2 = %.3f\n", d.ResourceFit.Slope, d.ResourceFit.R2)
}

// ---------------------------------------------------------------------
// BASE — market vs traditional allocators (Section I / Abstract).
// ---------------------------------------------------------------------

// BaselineRow compares one mechanism's shortage, surplus, and utilization
// imbalance.
type BaselineRow struct {
	Mechanism  string
	Shortage   float64
	Surplus    float64
	UtilSpread float64
	SettledPct float64
}

// Baseline builds one world, extracts its buy-side demand, and serves it
// through each traditional allocator and through the market, reporting
// shortage/surplus/imbalance for each.
func Baseline(cfg Config) ([]BaselineRow, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	// Capacity the operator can hand out: marketable free capacity.
	capacity := w.Fleet.FreeVector(w.Reg).Scale(0.8)

	// Generate the same bid population the market would see.
	util := w.Fleet.UtilizationVector(w.Reg)
	gbs, err := w.Gen.Generate(trace.RoundInput{
		Utilization:     util,
		ReferencePrices: w.FixedPrices,
	})
	if err != nil {
		return nil, err
	}
	// Traditional mechanisms only see the rigid home-cluster request
	// (first bundle) — no substitution, no prices.
	var reqs []baseline.Request
	for _, gb := range gbs {
		if gb.Side != trace.Buy {
			continue
		}
		reqs = append(reqs, baseline.Request{
			Team:     gb.Team.Name,
			Demand:   gb.Bid.Bundle(0).PositivePart(),
			Priority: gb.Team.Budget,
		})
	}
	var rows []BaselineRow
	for _, alloc := range baseline.Allocators() {
		o, err := alloc.Allocate(capacity, reqs)
		if err != nil {
			return nil, err
		}
		served := 0
		for _, a := range o.Allocations {
			if a != nil && !a.IsZero() {
				served++
			}
		}
		rows = append(rows, BaselineRow{
			Mechanism:  alloc.Name(),
			Shortage:   o.ShortageRate(),
			Surplus:    o.SurplusRate(),
			UtilSpread: o.UtilizationSpread(),
			SettledPct: 100 * float64(served) / float64(len(reqs)),
		})
	}

	// The market serves the same world (rebuilt so the bid RNG stream
	// matches) through the clock auction.
	seq, err := NewSequence(cfg, 1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, marketBaselineRow(seq.World, seq.Outcomes[0]))
	return rows, nil
}

// marketBaselineRow derives shortage/surplus/imbalance from a settled
// market auction, using the same accounting as the baseline Outcome: the
// supply side is the operator's marketable free capacity at auction time
// plus what teams sold; the demand side is the buy orders.
func marketBaselineRow(w *World, out *AuctionOutcome) BaselineRow {
	r := w.Reg.Len()
	bought := make(resource.Vector, r)
	teamSold := make(resource.Vector, r)
	unmet := make(resource.Vector, r)
	buyOrders, buyWins := 0, 0
	for _, o := range w.Exchange.Orders() {
		alloc := o.Allocation() // nil unless the order won
		if alloc != nil {
			teamSold.AddInto(alloc.NegativePart().Neg())
		}
		if o.Side() <= 0 {
			continue
		}
		buyOrders++
		if o.Status == market.Won {
			buyWins++
			bought.AddInto(alloc.PositivePart())
			continue
		}
		unmet.AddInto(o.Bid.Bundle(0).PositivePart())
	}
	// Marketable operator supply as of the pre-auction snapshot.
	capacity := w.Fleet.CapacityVector(w.Reg)
	supply := make(resource.Vector, r)
	for i := range supply {
		supply[i] = capacity[i]*(1-out.PreUtilization[i])*0.8 + teamSold[i]
	}

	totalDemand := bought.Sum() + unmet.Sum()
	shortage := 0.0
	if totalDemand > 0 {
		shortage = unmet.Sum() / totalDemand
	}
	surplus := 0.0
	if s := supply.Sum(); s > 0 {
		surplus = math.Max(0, supply.Sum()-bought.Sum()) / s
	}
	// Post-trade utilization spread across pools.
	spread := stats.CoefficientOfVariation(out.PostUtilization)
	settledPct := 0.0
	if buyOrders > 0 {
		settledPct = 100 * float64(buyWins) / float64(buyOrders)
	}
	return BaselineRow{
		Mechanism:  "market (clock auction)",
		Shortage:   shortage,
		Surplus:    surplus,
		UtilSpread: spread,
		SettledPct: settledPct,
	}
}

// RenderBaseline writes the comparison table.
func RenderBaseline(w io.Writer, rows []BaselineRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mechanism,
			fmt.Sprintf("%.1f%%", 100*r.Shortage),
			fmt.Sprintf("%.1f%%", 100*r.Surplus),
			fmt.Sprintf("%.3f", r.UtilSpread),
			fmt.Sprintf("%.1f%%", r.SettledPct),
		})
	}
	fmt.Fprint(w, chart.Table("Allocation mechanism comparison",
		[]string{"Mechanism", "Shortage", "Surplus", "Util spread (CV)", "Requests served"}, cells))
}

// ---------------------------------------------------------------------
// MIGR — demand migration across auctions (Section V.B).
// ---------------------------------------------------------------------

// MigrationRow tracks where bought capacity landed in one auction.
type MigrationRow struct {
	Auction int
	// ColdShare and HotShare split the bought quantity by the
	// pre-auction utilization of the destination pool (≤50% vs ≥80%).
	ColdShare, HotShare float64
	// UtilSpread is the post-auction coefficient of variation of pool
	// utilizations; migration should push it down.
	UtilSpread float64
	// Movers counts winning buy trades that landed outside the team's
	// previous home cluster.
	Movers int
}

// Migration reports the demand-shift pattern across the auctions.
func (s *Sequence) Migration() []MigrationRow {
	var rows []MigrationRow
	for _, out := range s.Outcomes {
		var cold, hot, total float64
		movers := 0
		for _, tr := range out.Trades {
			movedTo := ""
			// Pool indices are visited in sorted order, not map order:
			// cold/hot/total are float accumulations, and same-seed runs
			// must produce bit-identical rows.
			for _, pi := range sortedPoolQtyIndices(tr.PoolQty) {
				q := tr.PoolQty[pi]
				if q <= 0 {
					continue
				}
				total += q
				u := out.PreUtilization[pi]
				if u <= 0.5 {
					cold += q
				}
				if u >= 0.8 {
					hot += q
				}
				movedTo = s.World.Reg.Pool(pi).Cluster
			}
			if tr.Side == trace.Buy && movedTo != "" && movedTo != tr.Home {
				movers++
			}
		}
		row := MigrationRow{
			Auction:    out.Record.Number,
			Movers:     movers,
			UtilSpread: stats.CoefficientOfVariation(out.PostUtilization),
		}
		if total > 0 {
			row.ColdShare = cold / total
			row.HotShare = hot / total
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderMigration writes the migration table.
func RenderMigration(w io.Writer, rows []MigrationRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Auction),
			fmt.Sprintf("%.1f%%", 100*r.ColdShare),
			fmt.Sprintf("%.1f%%", 100*r.HotShare),
			fmt.Sprintf("%d", r.Movers),
			fmt.Sprintf("%.3f", r.UtilSpread),
		})
	}
	fmt.Fprint(w, chart.Table("Demand migration across auctions",
		[]string{"Auction", "Bought in cold pools", "Bought in hot pools", "Teams moved", "Util spread (CV)"}, cells))
}

// sortedPoolQtyIndices returns a trade's pool indices in ascending order,
// so accumulations over the PoolQty map are order-stable.
func sortedPoolQtyIndices(pq map[int]float64) []int {
	idx := make([]int, 0, len(pq))
	for pi := range pq {
		idx = append(idx, pi)
	}
	sort.Ints(idx)
	return idx
}

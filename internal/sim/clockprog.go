package sim

import (
	"fmt"
	"io"
	"sort"

	"clustermarket/internal/chart"
	"clustermarket/internal/core"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/trace"
)

// ClockSeries is the price trajectory of one pool across clock rounds.
type ClockSeries struct {
	Pool   resource.Pool
	Prices []float64
}

// ClockProgressionData is the clock-progression figure: how the price
// clock of Figure 1 ascends round by round, fast where demand is heavy
// and not at all where supply suffices.
type ClockProgressionData struct {
	Rounds int
	// Series holds the trajectories of the most-moved pools plus one
	// unmoved pool for contrast.
	Series []ClockSeries
	// Excess holds total positive excess demand per round (the auction's
	// progress variable).
	Excess []float64
}

// clockTop is the number of most-moved pools the clock progression
// plots.
const clockTop = 3

// ClockProgression builds a world, runs its first auction with history
// recording, and extracts price trajectories for the clockTop pools with
// the largest total movement plus the least-moved pool.
func ClockProgression(cfg Config) (*ClockProgressionData, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	// Replicate the world's first auction manually so we can pass
	// RecordHistory to the core auction (the exchange does not expose
	// it).
	util := w.Fleet.UtilizationVector(w.Reg)
	gbs, err := w.Gen.Generate(trace.RoundInput{
		Utilization:     util,
		ReferencePrices: w.FixedPrices,
	})
	if err != nil {
		return nil, err
	}
	bids := make([]*core.Bid, 0, len(gbs)+1)
	for _, gb := range gbs {
		bids = append(bids, gb.Bid)
	}
	// Operator supply, mirroring the exchange's construction but offering
	// a deliberately smaller marketable fraction: the figure's purpose is
	// to show the clock ascending under contention, which an
	// over-supplied market settles away in round one.
	free := w.Fleet.FreeVector(w.Reg)
	supply := w.Reg.Zero()
	for i, f := range free {
		if q := f * 0.25; q > 0 {
			supply[i] = -q
		}
	}
	bids = append(bids, &core.Bid{User: "operator", Limit: -0.000001, Bundles: []resource.Vector{supply}})

	pricer := reserve.NewPricer(reserve.ExpSteep)
	start, err := pricer.Prices(w.Reg, util, w.Fleet.CostVector(w.Reg))
	if err != nil {
		return nil, err
	}
	a, err := core.NewAuction(w.Reg, bids, core.Config{
		Start:         start,
		RecordHistory: true,
	})
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
	// Rank pools by total price movement.
	type move struct {
		pool  int
		delta float64
	}
	moves := make([]move, w.Reg.Len())
	last := res.History[len(res.History)-1].Prices
	for i := 0; i < w.Reg.Len(); i++ {
		moves[i] = move{pool: i, delta: last[i] - start[i]}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].delta > moves[b].delta })

	pick := moves[:min(clockTop, len(moves))]
	pick = append(pick, moves[len(moves)-1]) // least-moved pool for contrast
	for _, m := range pick {
		s := ClockSeries{Pool: w.Reg.Pool(m.pool)}
		for _, h := range res.History {
			s.Prices = append(s.Prices, h.Prices[m.pool])
		}
		d.Series = append(d.Series, s)
	}
	return d, nil
}

// RenderClockProgression writes the trajectory line plot.
func RenderClockProgression(w io.Writer, d *ClockProgressionData) {
	series := make([]chart.Series, 0, len(d.Series))
	for _, s := range d.Series {
		cs := chart.Series{Name: s.Pool.String()}
		for t, p := range s.Prices {
			cs.X = append(cs.X, float64(t))
			cs.Y = append(cs.Y, p)
		}
		series = append(series, cs)
	}
	fmt.Fprint(w, chart.LinePlot(
		fmt.Sprintf("Clock progression: price per round over %d rounds (most vs least contested pools)", d.Rounds),
		72, 20, series...))
	fmt.Fprintf(w, "total positive excess demand: first round %.1f, final round %.1f\n",
		d.Excess[0], d.Excess[len(d.Excess)-1])
}

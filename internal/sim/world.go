// Package sim wires the full stack together — synthetic clusters
// (internal/cluster), bidder population (internal/trace), exchange
// (internal/market), and clock auction (internal/core) — into repeatable
// end-to-end scenarios, and derives from them every figure and table in
// the paper's evaluation (Section V). See DESIGN.md for the experiment
// index.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/trace"
)

// Config parameterizes a scenario world. Zero values select defaults
// matching the paper's experimental scale ("around 100 bidders and 100
// system-level resources", Section III.C.4; 34 clusters in Figure 6).
type Config struct {
	Seed               int64
	Clusters           int
	MachinesPerCluster int
	Teams              int
	// HotFraction of clusters start congested; WarmFraction moderately
	// loaded; the rest idle.
	HotFraction, WarmFraction float64
	// Weight is the reserve curve (default reserve.ExpSteep, φ₁).
	Weight reserve.WeightFn
	// Scheduler packs tasks onto machines (default first-fit).
	Scheduler cluster.Scheduler
}

func (c *Config) applyDefaults() {
	if c.Clusters == 0 {
		c.Clusters = 34
	}
	if c.MachinesPerCluster == 0 {
		c.MachinesPerCluster = 40
	}
	if c.Teams == 0 {
		c.Teams = 100
	}
	if c.HotFraction == 0 {
		c.HotFraction = 0.35
	}
	if c.WarmFraction == 0 {
		c.WarmFraction = 0.3
	}
	if c.Weight == nil {
		c.Weight = reserve.ExpSteep
	}
}

// FixedPriceCPU etc. are the "former fixed prices" per unit that predate
// the market (the denominators of Figure 6). They equal the operator's
// real unit costs c(r).
const (
	FixedPriceCPU  = 1.0
	FixedPriceRAM  = 0.25
	FixedPriceDisk = 2.0
)

// World is one fully assembled scenario.
type World struct {
	Cfg      Config
	Rng      *rand.Rand
	Fleet    *cluster.Fleet
	Reg      *resource.Registry
	Exchange *market.Exchange
	Gen      *trace.Generator
	// FixedPrices is the pre-market fixed price vector (= costs).
	FixedPrices resource.Vector
	// LastPrices is the most recent settlement price vector (nil before
	// the first auction).
	LastPrices resource.Vector
	// PreUtilization snapshots ψ(r) as of the start of the latest
	// auction (the basis of the Figure 7 percentiles).
	PreUtilization resource.Vector
}

// NewWorld builds the scenario: clusters with skewed initial load, the
// exchange, and the team population.
func NewWorld(cfg Config) (*World, error) {
	cfg.applyDefaults()
	if cfg.Clusters < 2 {
		return nil, errors.New("sim: need at least 2 clusters")
	}
	if cfg.Teams < 1 {
		return nil, errors.New("sim: need at least 1 team")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	fleet := cluster.NewFleet()
	names := make([]string, 0, cfg.Clusters)
	for i := 1; i <= cfg.Clusters; i++ {
		name := fmt.Sprintf("r%d", i)
		names = append(names, name)
		c := cluster.New(name, cfg.Scheduler)
		c.UnitCost = cluster.Usage{CPU: FixedPriceCPU, RAM: FixedPriceRAM, Disk: FixedPriceDisk}
		c.AddMachines(cfg.MachinesPerCluster, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			return nil, err
		}
	}
	// Skewed initial utilization: hot, warm, and cold clusters.
	for _, name := range names {
		var target cluster.Usage
		x := rng.Float64()
		switch {
		case x < cfg.HotFraction:
			target = cluster.Usage{
				CPU:  0.75 + rng.Float64()*0.2,
				RAM:  0.75 + rng.Float64()*0.2,
				Disk: 0.7 + rng.Float64()*0.25,
			}
		case x < cfg.HotFraction+cfg.WarmFraction:
			target = cluster.Usage{
				CPU:  0.45 + rng.Float64()*0.2,
				RAM:  0.45 + rng.Float64()*0.2,
				Disk: 0.4 + rng.Float64()*0.2,
			}
		default:
			target = cluster.Usage{
				CPU:  0.1 + rng.Float64()*0.25,
				RAM:  0.1 + rng.Float64()*0.25,
				Disk: 0.1 + rng.Float64()*0.2,
			}
		}
		if err := fleet.FillToUtilization(rng, name, target); err != nil {
			return nil, err
		}
	}

	ex, err := market.NewExchange(fleet, market.Config{
		InitialBudget: 50000,
		Weight:        cfg.Weight,
	})
	if err != nil {
		return nil, err
	}
	reg := ex.Registry()

	gen, err := trace.New(trace.Config{
		Seed:     cfg.Seed + 1,
		Clusters: names,
		Teams:    cfg.Teams,
	}, reg)
	if err != nil {
		return nil, err
	}
	for _, tm := range gen.Teams() {
		if err := ex.OpenAccount(tm.Name); err != nil {
			return nil, err
		}
	}

	fixed := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		switch reg.Pool(i).Dim {
		case resource.CPU:
			fixed[i] = FixedPriceCPU
		case resource.RAM:
			fixed[i] = FixedPriceRAM
		case resource.Disk:
			fixed[i] = FixedPriceDisk
		}
	}
	return &World{
		Cfg:         cfg,
		Rng:         rng,
		Fleet:       fleet,
		Reg:         reg,
		Exchange:    ex,
		Gen:         gen,
		FixedPrices: fixed,
	}, nil
}

// SettledTrade records where one settled order's resources landed, for
// the Figure 7 analysis.
type SettledTrade struct {
	Team string
	Side trace.Side
	// PoolQty maps pool index → settled quantity (positive bought,
	// negative sold).
	PoolQty map[int]float64
}

// AuctionOutcome bundles everything one auction produced.
type AuctionOutcome struct {
	Record *market.AuctionRecord
	Result *core.Result
	// PreUtilization is ψ(r) right before the auction.
	PreUtilization resource.Vector
	// Trades lists the settled orders.
	Trades []SettledTrade
	// SkippedBids counts generated bids rejected at submission (over
	// budget etc.).
	SkippedBids int
}

// RunAuction executes one full market cycle: generate bids from the
// current market state, submit them, run the binding auction, settle
// teams, and reflect trades onto the physical clusters.
func (w *World) RunAuction() (*AuctionOutcome, error) {
	ref := w.FixedPrices
	if w.LastPrices != nil {
		ref = w.LastPrices
	}
	util := w.Fleet.UtilizationVector(w.Reg)
	w.PreUtilization = util

	gbs, err := w.Gen.Generate(trace.RoundInput{
		Utilization:     util,
		ReferencePrices: ref,
	})
	if err != nil {
		return nil, err
	}

	var submitted []*trace.GeneratedBid
	skipped := 0
	for _, gb := range gbs {
		if _, err := w.Exchange.Submit(gb.Team.Name, gb.Bid); err != nil {
			skipped++
			continue
		}
		submitted = append(submitted, gb)
	}
	if len(submitted) == 0 {
		return nil, errors.New("sim: every generated bid was rejected")
	}

	rec, res, err := w.Exchange.RunAuction()
	if err != nil && res == nil {
		return nil, err
	}
	if err != nil {
		// Non-convergent round: the exchange settled nothing and left
		// the round's orders open, so nothing may be applied to the
		// bidder population or the physical clusters, and the failed
		// clock's non-clearing prices must not become the next round's
		// reference prices (LastPrices keeps its last converged value).
		// Withdraw the leftovers so the next round's auction result
		// indices align with its own submissions.
		for _, o := range w.Exchange.OpenOrders() {
			_ = w.Exchange.Cancel(o.ID)
		}
		return &AuctionOutcome{
			Record:         rec,
			Result:         res,
			PreUtilization: util,
			SkippedBids:    skipped,
		}, nil
	}
	w.LastPrices = rec.Prices

	// Update the bidder population (migration, sold holdings,
	// sophistication) and the physical clusters.
	bidIndex := make(map[*core.Bid]int, len(submitted))
	for i, gb := range submitted {
		bidIndex[gb.Bid] = i
	}
	w.Gen.ApplySettlement(submitted, res, bidIndex)

	out := &AuctionOutcome{
		Record:         rec,
		Result:         res,
		PreUtilization: util,
		SkippedBids:    skipped,
	}
	for i, gb := range submitted {
		if !res.IsWinner(i) {
			continue
		}
		tradeQty := make(map[int]float64)
		alloc := gb.Bid.Bundle(res.ChosenBundle[i])
		for pi, q := range alloc {
			if q != 0 {
				tradeQty[pi] = q
			}
		}
		out.Trades = append(out.Trades, SettledTrade{
			Team:    gb.Team.Name,
			Side:    gb.Side,
			PoolQty: tradeQty,
		})
		w.applyToFleet(gb.Team.Name, alloc)
	}
	return out, nil
}

// applyToFleet reflects a settled allocation onto the physical clusters:
// purchases are placed as (chunked) tasks, sales evict load.
func (w *World) applyToFleet(team string, alloc resource.Vector) {
	type delta struct {
		buy  cluster.Usage
		sell cluster.Usage
	}
	perCluster := make(map[string]*delta)
	for pi, q := range alloc {
		if q == 0 {
			continue
		}
		p := w.Reg.Pool(pi)
		d, ok := perCluster[p.Cluster]
		if !ok {
			d = &delta{}
			perCluster[p.Cluster] = d
		}
		if q > 0 {
			d.buy = d.buy.Set(p.Dim, q)
		} else {
			d.sell = d.sell.Set(p.Dim, -q)
		}
	}
	for _, name := range w.Fleet.ClusterNames() {
		d, ok := perCluster[name]
		if !ok {
			continue
		}
		if !d.sell.IsZero() {
			w.evictLoad(name, d.sell)
		}
		if !d.buy.IsZero() {
			w.placeLoad(team, name, d.buy)
		}
	}
}

// placeLoad schedules the bought usage as machine-sized chunks, dropping
// the remainder when the cluster genuinely cannot host it.
func (w *World) placeLoad(team, clusterName string, total cluster.Usage) {
	chunk := cluster.Usage{CPU: 8, RAM: 32, Disk: 5}
	for i := 0; i < 10000; i++ {
		if total.IsZero() {
			return
		}
		req := total
		if req.CPU > chunk.CPU {
			req.CPU = chunk.CPU
		}
		if req.RAM > chunk.RAM {
			req.RAM = chunk.RAM
		}
		if req.Disk > chunk.Disk {
			req.Disk = chunk.Disk
		}
		if _, err := w.Fleet.ScheduleTask(team, clusterName, req); err != nil {
			return
		}
		total = total.Sub(req)
		if total.CPU < 0 {
			total.CPU = 0
		}
		if total.RAM < 0 {
			total.RAM = 0
		}
		if total.Disk < 0 {
			total.Disk = 0
		}
	}
}

// evictLoad removes background/team tasks until roughly the sold usage is
// freed.
func (w *World) evictLoad(clusterName string, sold cluster.Usage) {
	c := w.Fleet.Cluster(clusterName)
	if c == nil {
		return
	}
	var freed cluster.Usage
	for _, m := range c.Machines() {
		if freed.CPU >= sold.CPU && freed.RAM >= sold.RAM && freed.Disk >= sold.Disk {
			return
		}
		var ids []string
		var reqs []cluster.Usage
		for _, t := range tasksOf(m) {
			ids = append(ids, t.ID)
			reqs = append(reqs, t.Req)
		}
		for i, id := range ids {
			if freed.CPU >= sold.CPU && freed.RAM >= sold.RAM && freed.Disk >= sold.Disk {
				return
			}
			if c.Evict(id) {
				freed = freed.Add(reqs[i])
			}
		}
	}
}

// tasksOf returns a machine's tasks in deterministic (ID-sorted) order.
func tasksOf(m *cluster.Machine) []cluster.Task {
	// Machines do not expose their task map directly; reconstruct from
	// the public API via TeamUsage would lose IDs, so we walk the
	// exported accessor.
	return m.Tasks()
}

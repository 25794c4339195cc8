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
	"clustermarket/internal/market"
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
}

// A world's clusters start hot (hotFraction of them), warm
// (warmFraction) or idle (the rest). The constants are typed so their sum
// is the float64 sum.
const hotFraction, warmFraction float64 = 0.35, 0.3

// World is one fully assembled scenario.
type World struct {
	Fleet    *cluster.Fleet
	Reg      *resource.Registry
	Exchange *market.Exchange
	Gen      *trace.Generator
	// FixedPrices is the pre-market fixed price vector (= costs).
	FixedPrices resource.Vector
	// LastPrices is the most recent settlement price vector (nil before
	// the first auction).
	LastPrices resource.Vector
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
		c := cluster.New(name, nil)
		c.UnitCost = cluster.OperatorUnitCost
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
		case x < hotFraction:
			target = cluster.Usage{
				CPU:  0.75 + rng.Float64()*0.2,
				RAM:  0.75 + rng.Float64()*0.2,
				Disk: 0.7 + rng.Float64()*0.25,
			}
		case x < hotFraction+warmFraction:
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

	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 50000})
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
	return &World{
		Fleet:       fleet,
		Reg:         reg,
		Exchange:    ex,
		Gen:         gen,
		FixedPrices: fleet.CostVector(reg),
	}, nil
}

// SettledTrade records where one settled order's resources landed, for
// the Figure 7 and migration analyses.
type SettledTrade struct {
	Side trace.Side
	// Home is the team's home cluster when it bid.
	Home string
	// PoolQty maps pool index → settled quantity (positive bought,
	// negative sold).
	PoolQty map[int]float64
}

// AuctionOutcome bundles everything one auction produced.
type AuctionOutcome struct {
	Record *market.AuctionRecord
	// PreUtilization is ψ(r) right before the auction, PostUtilization
	// right after its trades reached the fleet.
	PreUtilization, PostUtilization resource.Vector
	// Trades lists the settled orders.
	Trades []SettledTrade
}

// RunAuction executes one full market cycle: generate bids from the
// current market state, submit them, run the binding auction, reflect
// trades onto the physical clusters, and settle teams.
func (w *World) RunAuction() (*AuctionOutcome, error) {
	ref := w.FixedPrices
	if w.LastPrices != nil {
		ref = w.LastPrices
	}
	util := w.Fleet.UtilizationVector(w.Reg)

	gbs, err := w.Gen.Generate(trace.RoundInput{
		Utilization:     util,
		ReferencePrices: ref,
	})
	if err != nil {
		return nil, err
	}

	var submitted []*trace.GeneratedBid
	var ids []int
	for _, gb := range gbs {
		o, err := w.Exchange.Submit(gb.Team.Name, gb.Bid)
		if err != nil {
			continue
		}
		submitted = append(submitted, gb)
		ids = append(ids, o.ID)
	}
	if len(submitted) == 0 {
		return nil, errors.New("sim: every generated bid was rejected")
	}

	rec, res, err := w.Exchange.RunAuction()
	if err != nil && res == nil {
		return nil, err
	}
	out := &AuctionOutcome{Record: rec, PreUtilization: util}
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
		out.PostUtilization = util
		return out, nil
	}
	w.LastPrices = rec.Prices

	// Reflect the trades onto the physical clusters through the
	// exchange: a sale evicts load, a purchase is placed as chunked
	// tasks. Then update the bidder population (migration, sold
	// holdings, sophistication).
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
			Side:    gb.Side,
			Home:    gb.Team.Home,
			PoolQty: tradeQty,
		})
		if err := w.evictSold(alloc); err != nil {
			return nil, err
		}
		if _, err := w.Exchange.PlaceOrder(ids[i]); err != nil {
			return nil, err
		}
	}
	w.Gen.ApplySettlement(submitted, res)
	out.PostUtilization = w.Fleet.UtilizationVector(w.Reg)
	return out, nil
}

// evictSold frees at least the sold part of an allocation from the fleet,
// evicting tasks through the exchange machine by machine, each machine's
// in ID order. A bid sells only from its team's home, so the sold part
// lies in one cluster.
func (w *World) evictSold(alloc resource.Vector) error {
	var home string
	var sold, freed cluster.Usage
	for pi, q := range alloc {
		if q < 0 {
			p := w.Reg.Pool(pi)
			home = p.Cluster
			sold = sold.Set(p.Dim, -q)
		}
	}
	if home == "" {
		return nil
	}
	for _, m := range w.Fleet.Cluster(home).Machines() {
		for _, t := range m.Tasks() {
			if freed.CPU >= sold.CPU && freed.RAM >= sold.RAM && freed.Disk >= sold.Disk {
				return nil
			}
			if err := w.Exchange.EvictTask(home, t.ID); err != nil {
				return err
			}
			freed = freed.Add(t.Req)
		}
	}
	return nil
}

// Sequence is one world's run of sequential auctions: the one outcome
// sequence that Figures 6 and 7, Table I and the migration table read.
type Sequence struct {
	World    *World
	Outcomes []*AuctionOutcome
}

// NewSequence builds a world and runs auctions sequential auctions on it.
func NewSequence(cfg Config, auctions int) (*Sequence, error) {
	if auctions < 1 {
		return nil, fmt.Errorf("sim: need at least 1 auction, got %d", auctions)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sequence{World: w}
	for a := 0; a < auctions; a++ {
		out, err := w.RunAuction()
		if err != nil {
			return nil, err
		}
		s.Outcomes = append(s.Outcomes, out)
	}
	return s, nil
}

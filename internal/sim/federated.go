package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// FederatedConfig parameterizes the federated migration scenario: a hot
// region and a cold region behind one Federation, with teams submitting
// cross-region XOR bids ("workers in hot or cold") that the router
// steers by price.
type FederatedConfig struct {
	Seed               int64
	ClustersPerRegion  int // default 2
	MachinesPerCluster int // default 20
	Teams              int // default 20
	Epochs             int // default 5
}

func (c *FederatedConfig) applyDefaults() {
	if c.ClustersPerRegion == 0 {
		c.ClustersPerRegion = 2
	}
	if c.MachinesPerCluster == 0 {
		c.MachinesPerCluster = 20
	}
	if c.Teams == 0 {
		c.Teams = 20
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
}

// FederatedRow is one epoch of the federated scenario: the two regions'
// CPU price levels and where the routable demand actually landed.
type FederatedRow struct {
	Epoch int
	// HotCPUPrice and ColdCPUPrice are each region's mean CPU price —
	// clearing prices once the region has settled an auction, reserve
	// prices before.
	HotCPUPrice, ColdCPUPrice float64
	// ColdShare is the fraction of cross-region orders won this epoch
	// that landed in the cold region — the migration the paper's
	// substitution bundles are meant to produce.
	ColdShare float64
	// Won and Lost count terminal cross-region orders this epoch.
	Won, Lost int
}

// FederatedMigration builds a hot+cold federated market and runs it for
// cfg.Epochs settlement waves. Each epoch every team submits a
// cross-region XOR bid priced to be affordable in the cold region but
// not the hot one, plus occasional hot-local bids from incumbents; won
// load is placed onto the winning region's clusters, so the cold region
// visibly warms — and its prices rise — as demand migrates into it.
func FederatedMigration(cfg FederatedConfig) ([]FederatedRow, *federation.Federation, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	build := func(name string, util float64) (*federation.Region, error) {
		fleet := cluster.NewFleet()
		for i := 1; i <= cfg.ClustersPerRegion; i++ {
			cn := fmt.Sprintf("%s-r%d", name, i)
			c := cluster.New(cn, nil)
			c.UnitCost = cluster.Usage{CPU: FixedPriceCPU, RAM: FixedPriceRAM, Disk: FixedPriceDisk}
			c.AddMachines(cfg.MachinesPerCluster, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := fleet.AddCluster(c); err != nil {
				return nil, err
			}
			if err := fleet.FillToUtilization(rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
				return nil, err
			}
		}
		return federation.NewRegion(name, fleet, market.Config{InitialBudget: 1e6})
	}
	hot, err := build("hot", 0.85)
	if err != nil {
		return nil, nil, err
	}
	cold, err := build("cold", 0.12)
	if err != nil {
		return nil, nil, err
	}
	fed, err := federation.NewFederation(hot, cold)
	if err != nil {
		return nil, nil, err
	}
	teams := make([]string, cfg.Teams)
	for i := range teams {
		teams[i] = fmt.Sprintf("t%d", i)
		if err := fed.OpenAccount(teams[i]); err != nil {
			return nil, nil, err
		}
	}

	// batch-compute fixed cost per worker at the operator's real unit
	// costs; limits are set relative to it so a bid clears the cold
	// region's discounted reserve but not the hot region's premium.
	product, err := fed.Catalog().Lookup("batch-compute")
	if err != nil {
		return nil, nil, err
	}
	unitCost := product.PerUnit.CPU*FixedPriceCPU +
		product.PerUnit.RAM*FixedPriceRAM +
		product.PerUnit.Disk*FixedPriceDisk

	var rows []FederatedRow
	crossOrders := make(map[int]bool) // fed order ID → cross-region
	settled := make(map[int]bool)     // fed order ID → already counted/placed
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, team := range teams {
			qty := 1 + rng.Float64()*2
			hc := fmt.Sprintf("hot-r%d", 1+rng.Intn(cfg.ClustersPerRegion))
			cc := fmt.Sprintf("cold-r%d", 1+rng.Intn(cfg.ClustersPerRegion))
			if rng.Float64() < 0.25 {
				// A hot-region incumbent willing to pay the congestion
				// premium keeps the hot market alive.
				limit := 3 * unitCost * qty
				if _, err := fed.SubmitProduct(team, "batch-compute", qty, []string{hc}, limit); err != nil {
					return nil, nil, err
				}
				continue
			}
			// The migratable workload: either region acceptable, priced
			// for the cold one.
			limit := 1.5 * unitCost * qty
			fo, err := fed.SubmitProduct(team, "batch-compute", qty, []string{hc, cc}, limit)
			if err != nil {
				return nil, nil, err
			}
			crossOrders[fo.ID] = true
		}

		for _, tk := range fed.Tick() {
			// A non-convergent clock is a normal recoverable outcome: the
			// region's batch stays open for its next epoch.
			if tk.Err != nil && !errors.Is(tk.Err, core.ErrNoConvergence) {
				return nil, nil, fmt.Errorf("sim: epoch %d region %s: %w", epoch, tk.Region, tk.Err)
			}
		}

		row := FederatedRow{Epoch: epoch}
		var coldWon, crossWon float64
		for _, fo := range fed.Orders() {
			if settled[fo.ID] || (fo.Status != market.Won && fo.Status != market.Lost) {
				continue
			}
			settled[fo.ID] = true
			if fo.Status == market.Won {
				placeFederatedWin(fed, fo)
			}
			if !crossOrders[fo.ID] {
				continue
			}
			switch fo.Status {
			case market.Won:
				row.Won++
				crossWon++
				if fo.Region == "cold" {
					coldWon++
				}
			case market.Lost:
				row.Lost++
			}
		}
		if crossWon > 0 {
			row.ColdShare = coldWon / crossWon
		}
		row.HotCPUPrice = regionMeanCPUPrice(hot)
		row.ColdCPUPrice = regionMeanCPUPrice(cold)
		rows = append(rows, row)
	}
	return rows, fed, nil
}

// regionMeanCPUPrice averages the region's CPU pool prices: clearing
// prices once an auction has converged, reserve prices before.
func regionMeanCPUPrice(r *federation.Region) float64 {
	ex := r.Exchange()
	reg := ex.Registry()
	prices := ex.LastClearingPrices()
	if prices == nil {
		var err error
		prices, err = ex.ReservePrices()
		if err != nil {
			return 0
		}
	}
	idx := reg.DimensionPools(resource.CPU)
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		sum += prices[i]
	}
	return sum / float64(len(idx))
}

// placeFederatedWin reflects a won federated order onto the winning
// region's clusters as chunked tasks, so settled demand shows up in the
// region's utilization — and therefore in its future reserve prices.
// The shared placement helper visits clusters in sorted name order:
// placement is bin-packing, so the order tasks land decides which
// chunks fit, hence future utilization, hence future reserve prices —
// map-order iteration here used to make same-seed runs diverge.
func placeFederatedWin(fed *federation.Federation, fo *federation.FedOrder) {
	region := fed.Region(fo.Region)
	if region == nil {
		return
	}
	leg := fo.WonLeg()
	if leg == nil {
		return
	}
	ex := region.Exchange()
	o, err := ex.Order(leg.OrderID)
	if err != nil {
		return
	}
	pools, qty := o.Grant()
	ex.Fleet().PlaceAllocationChunked(ex.Registry(), fo.Team, pools, qty, nil)
}

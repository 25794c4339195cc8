// Package federation scales the single-exchange market of Section V into
// a planet-wide federation of regional markets. Each Region wraps one
// Exchange over its own fleet (its own reserve pricer, order book, and
// epoch cadence); a Federation fronts N regions behind one API, routing
// region-local bids straight to their home exchange and splitting
// cross-region XOR bids into per-region legs that are tried cheapest
// region first, guided by a gossip-refreshed price board.
//
// This is the sharding direction the related work points to — Haddadi et
// al.'s federated cloud marketplace (autonomous markets behind a broker)
// and Tycoon's distributed per-host auctioneers (PAPERS.md) — applied to
// the paper's clock-auction market: many local markets, demand steered
// between them on price, exactly as the paper's substitution bundles
// ("40 cores in EU or US") intend.
package federation

import (
	"errors"
	"fmt"

	"clustermarket/internal/cluster"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// Region is one autonomous regional market: a named Exchange over its own
// fleet. Cluster names inside a region conventionally carry the region
// name as a prefix ("eu-r1"), which keeps pools namespaced per region and
// globally unambiguous across the federation.
type Region struct {
	name string
	ex   *market.Exchange
}

// NewRegion wires a regional exchange to its fleet. The region name must
// be non-empty; the fleet must have at least one cluster. The
// market.Config applies to the region's exchange verbatim. Every
// regional book is striped like any exchange's, so each regional intake
// pipeline is itself contention-free under the federation router's
// concurrent leg routing.
func NewRegion(name string, fleet *cluster.Fleet, cfg market.Config) (*Region, error) {
	return recoverRegion(name, fleet, cfg, &journal.Recovery{})
}

// recoverRegion is NewRegion over a journal recovery, whose snapshot and
// WAL tail are replayed through the exchange's deterministic apply layer
// before cfg.Journal is attached; an empty recovery builds the region
// fresh. The fleet must be rebuilt to its as-built state (it is not
// journaled), and cfg must match the crashed process's.
func recoverRegion(name string, fleet *cluster.Fleet, cfg market.Config, rec *journal.Recovery) (*Region, error) {
	if name == "" {
		return nil, errors.New("federation: empty region name")
	}
	ex, err := market.Recover(fleet, cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("federation: region %q: %w", name, err)
	}
	return &Region{name: name, ex: ex}, nil
}

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Exchange returns the region's exchange.
func (r *Region) Exchange() *market.Exchange { return r.ex }

// Clusters returns the region's cluster names in registration order.
func (r *Region) Clusters() []string { return r.ex.Fleet().ClusterNames() }

// quote captures the region's current view of prices for the board: the
// last clearing prices when an auction has converged, otherwise the live
// reserve prices.
func (r *Region) quote(tick int) (Quote, error) {
	p, clearing, err := r.ex.CurrentPrices()
	if err != nil {
		return Quote{}, err
	}
	return Quote{Region: r.name, Prices: p, Clearing: clearing, Tick: tick}, nil
}

// legCost prices a product cover at a region's quoted prices: the
// cheapest acceptable cluster's cost (the same min the bidder proxy would
// take). The clusters index rows, each a cluster's pools in the region's
// registry; a cluster with no quoted pool is not acceptable, and a leg with
// none costs +Inf.
func legCost(q Quote, cover cluster.Usage, clusters []uint32, rows []resource.PoolRow) float64 {
	best := -1.0
	for _, c := range clusters {
		cost, found := 0.0, false
		for d, i := range rows[c] {
			if i >= 0 && int(i) < len(q.Prices) {
				cost += float64(cover.Get(resource.StandardDimensions[d]) * q.Prices[i]) // rounded before the add (make fma-check)
				found = true
			}
		}
		if found && (best < 0 || cost < best) {
			best = cost
		}
	}
	if best < 0 {
		return inf
	}
	return best
}

package market

import (
	"clustermarket/internal/cluster"
	"clustermarket/internal/resource"
)

// ClusterSummary is one row of the "market summary" page (Figure 3): the
// cluster's open interest and current prices per dimension.
type ClusterSummary struct {
	Cluster string
	// Bids and Offers count open orders touching the cluster by side.
	Bids, Offers int
	// Price holds the latest settlement (or reserve) price per dimension.
	Price cluster.Usage
	// Utilization is the cluster's live ψ per dimension.
	Utilization cluster.Usage
}

// Summary builds the market summary rows in cluster registration order.
// Prices come from the most recent auction, falling back to current
// reserve prices before the first auction.
func (e *Exchange) Summary() ([]ClusterSummary, error) {
	prices, _, err := e.CurrentPrices()
	if err != nil {
		return nil, err
	}
	// Count open interest per cluster, stripe by stripe, over the bids'
	// rows: O(non-zero components), not O(R), under each stripe's read
	// lock. Bids are frozen at submit time, so reading them is safe.
	bidCount := make(map[string]int)
	offerCount := make(map[string]int)
	touched := make(map[string]bool)
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.open {
			if o.Status != Open {
				continue
			}
			side := o.Side()
			clear(touched)
			for i, n := 0, o.Bid.NumBundles(); i < n; i++ {
				pools, _ := o.Bid.Row(i)
				for _, g := range pools {
					touched[e.reg.Pool(int(g)).Cluster] = true
				}
			}
			for c := range touched {
				switch {
				case side > 0:
					bidCount[c]++
				case side < 0:
					offerCount[c]++
				default:
					bidCount[c]++
					offerCount[c]++
				}
			}
		}
		os.mu.RUnlock()
	}

	var out []ClusterSummary
	for _, name := range e.fleet.ClusterNames() {
		cs := ClusterSummary{Cluster: name, Bids: bidCount[name], Offers: offerCount[name]}
		if c := e.fleet.Cluster(name); c != nil {
			cs.Utilization = c.Utilization()
		}
		for _, d := range resource.StandardDimensions {
			if i, ok := e.reg.Index(resource.Pool{Cluster: name, Dim: d}); ok {
				cs.Price = cs.Price.Set(d, prices[i])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// PriceHistoryTail returns one pool's most recent `limit` settlement
// prices, oldest first: the sparkline data on the market front end.
// Failed clocks stopped at non-clearing prices and are excluded. It
// scans the history backwards and stops at the bound, so a poll of a
// long-lived market costs O(limit), not O(total auctions). A
// non-positive limit or an unknown pool returns nil.
func (e *Exchange) PriceHistoryTail(pool resource.Pool, limit int) []float64 {
	if limit <= 0 {
		return nil
	}
	i, ok := e.reg.Index(pool)
	if !ok {
		return nil
	}
	e.histMu.RLock()
	out := make([]float64, 0, limit)
	for j := len(e.history) - 1; j >= 0 && len(out) < limit; j-- {
		if rec := e.history[j]; rec.Converged {
			out = append(out, rec.Prices[i])
		}
	}
	e.histMu.RUnlock()
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	return out
}

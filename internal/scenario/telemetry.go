package scenario

import (
	"fmt"

	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/stats"
	"clustermarket/internal/telemetry"
)

// EventSource is the firehose Source value the scenario engine publishes
// under. Scenario events are thin epoch markers: the heavy lifting — who
// submitted what, how every auction cleared — rides the backend's own
// "market" and "fed" streams, and the markers delimit which epoch each
// backend event belongs to.
const EventSource = "scenario"

// Scenario event kinds.
const (
	// EvEpochStart opens an epoch's window on the stream. Payload:
	// *EpochStartEvent.
	EvEpochStart = "epoch-start"
	// EvSubmitRejected marks one rejected submission — an outcome the
	// backend's event stream cannot carry, because rejected orders are
	// never materialized. Payload: *RejectEvent.
	EvSubmitRejected = "submit-rejected"
	// EvEpochEnd closes the epoch's window with the engine's end-of-epoch
	// observations. Payload: *EpochEndEvent.
	EvEpochEnd = "epoch-end"
)

// EpochStartEvent is the epoch-start payload: the epoch index, the live
// bidder population after churn, and the regions dark this epoch.
type EpochStartEvent struct {
	Epoch int      `json:"epoch"`
	Teams int      `json:"teams"`
	Dark  []string `json:"dark,omitempty"`
}

// RejectEvent is the submit-rejected payload. Kind is "product" for a
// rejected product order, "storm" for a trader-pair injection that lost
// the budget race.
type RejectEvent struct {
	Epoch int    `json:"epoch"`
	Kind  string `json:"kind"`
}

// EpochEndEvent is the epoch-end payload: the point-in-time reads and
// invariant-kernel result only the engine can observe.
type EpochEndEvent struct {
	Epoch      int           `json:"epoch"`
	OpenOrders int           `json:"open_orders"`
	Violations int           `json:"violations"`
	Prices     []RegionPrice `json:"prices,omitempty"`
}

// stormTeam reports whether an account belongs to the engine's hostile
// trader injection (populate opens exactly "storm-a" and "storm-b").
func stormTeam(team string) bool { return team == "storm-a" || team == "storm-b" }

// ReconstructReport rebuilds a run's Report from its firehose stream —
// the proof that the telemetry pipeline is lossless: the reconstructed
// report's Fingerprint must equal the live Run's, bit for bit.
//
// The reconstruction reads three sources. Scenario markers delimit
// epochs and carry the engine-side observations (team population, dark
// regions, rejections, open orders, prices, violations). Market events
// supply auction records, the injected storm bids and the teams' offers
// and trades, which enter through a market's book and never reach the
// router. Fed events supply
// the product-order lifecycle, whose IDs and terminal states live at the
// router, not in any one market.
//
// Events must be in stream order (ascending Seq) and complete: a
// subscriber that dropped events cannot reconstruct the run —
// fingerprint tests size their buffers and assert Dropped()==0.
func ReconstructReport(scenarioName, backendKind string, seed int64, events []telemetry.Event) (*Report, error) {
	rep := &Report{Scenario: scenarioName, Backend: backendKind, Seed: seed}

	var cur *EpochSummary
	// tracked holds the product orders still open, by router order ID,
	// mapped to their latest status — the reconstruction's mirror of the
	// engine's `open` slice.
	tracked := make(map[int]market.OrderStatus)
	// stormIDs holds the regional order IDs of injected storm bids, so a
	// later order-cancelled event (only ever the pair rollback) can be
	// attributed; stormBids counts this epoch's net injections.
	stormIDs := make(map[int]bool)
	stormBids := 0
	var premiums []float64

	for _, ev := range events {
		switch ev.Source {
		case EventSource:
			switch ev.Kind {
			case EvEpochStart:
				p, ok := ev.Payload.(*EpochStartEvent)
				if !ok {
					return nil, fmt.Errorf("scenario: %s event has payload %T", ev.Kind, ev.Payload)
				}
				if cur != nil {
					return nil, fmt.Errorf("scenario: epoch %d started before epoch %d ended", p.Epoch, cur.Epoch)
				}
				cur = &EpochSummary{Epoch: p.Epoch, Teams: p.Teams, Dark: append([]string(nil), p.Dark...)}
				stormBids = 0
				premiums = premiums[:0]
			case EvSubmitRejected:
				if cur == nil {
					return nil, fmt.Errorf("scenario: %s event outside any epoch", ev.Kind)
				}
				cur.Rejected++
			case EvEpochEnd:
				p, ok := ev.Payload.(*EpochEndEvent)
				if !ok {
					return nil, fmt.Errorf("scenario: %s event has payload %T", ev.Kind, ev.Payload)
				}
				if cur == nil || cur.Epoch != p.Epoch {
					return nil, fmt.Errorf("scenario: epoch-end for epoch %d without matching start", p.Epoch)
				}
				// The engine's outcome scan, replayed: every tracked order
				// whose latest status is terminal resolved this epoch.
				for id, st := range tracked {
					switch st {
					case market.Won:
						cur.Won++
					case market.Lost:
						cur.Lost++
					case market.Unsettled:
						cur.Unsettled++
					default:
						continue
					}
					delete(tracked, id)
				}
				cur.StormBids = stormBids
				if len(premiums) > 0 {
					cur.MedianPremium = stats.Median(premiums)
				}
				cur.OpenOrders = p.OpenOrders
				cur.Violations = p.Violations
				cur.Prices = append([]RegionPrice(nil), p.Prices...)
				rep.Epochs = append(rep.Epochs, *cur)
				cur = nil
			}

		case market.EventSource:
			p, ok := ev.Payload.(*market.Event)
			if !ok {
				return nil, fmt.Errorf("scenario: market event has payload %T", ev.Payload)
			}
			switch p.Kind {
			case market.EvOrderSubmitted:
				if cur == nil {
					return nil, fmt.Errorf("scenario: order %d submitted outside any epoch", p.OrderID)
				}
				// A team's raw bid is a sale or a quota trade; any other
				// non-storm submit is a routed leg of a product order the
				// router already counted.
				switch {
				case stormTeam(p.Team):
					stormIDs[p.OrderID] = true
					stormBids++
				case p.Bid == nil:
				case p.Bid.Class() == core.PureSeller:
					cur.Offers++
				case p.Bid.Class() == core.Trader:
					cur.Trades++
				}
			case market.EvOrderCancelled:
				// The engine cancels exactly one thing: the booked first leg
				// of a trader pair whose second leg lost the budget race.
				if stormIDs[p.OrderID] {
					delete(stormIDs, p.OrderID)
					stormBids--
				}
			case market.EvAuctionCleared:
				if cur == nil || p.Record == nil {
					return nil, fmt.Errorf("scenario: malformed auction-cleared event (in epoch: %v)", cur != nil)
				}
				cur.Auctions++
				if p.Record.Converged {
					cur.Converged++
				}
				cur.Settled += p.Record.Settled
				premiums = append(premiums, p.Record.Premiums...)
			}

		case federation.EventSource:
			p, ok := ev.Payload.(*federation.FedEvent)
			if !ok {
				return nil, fmt.Errorf("scenario: fed event has payload %T", ev.Payload)
			}
			switch p.Kind {
			case federation.EvFedOrderSubmitted:
				if cur == nil || p.Order == nil {
					return nil, fmt.Errorf("scenario: malformed fed-order-submitted event (in epoch: %v)", cur != nil)
				}
				cur.Submitted++
				tracked[p.Order.ID] = p.Order.Status
			case federation.EvFedOrderUpdated:
				if p.Order == nil {
					return nil, fmt.Errorf("scenario: malformed fed-order-updated event")
				}
				if _, ok := tracked[p.Order.ID]; ok {
					tracked[p.Order.ID] = p.Order.Status
				}
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("scenario: stream ends inside epoch %d", cur.Epoch)
	}
	return rep, nil
}

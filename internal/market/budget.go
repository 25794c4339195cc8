package market

import (
	"errors"
	"fmt"
)

// Disburse credits `total` new budget dollars across the non-operator
// accounts in equal shares. Section IV.A ties the reserve curves'
// bounded-ratio property to how budget dollars are disbursed, but
// leaves the strategy out of scope. Every credit lands in the billing
// ledger against the operator account, so the ledger stays balanced.
func (e *Exchange) Disburse(total float64) error {
	if !positiveFinite(total) {
		return fmt.Errorf("market: disbursement must be positive and finite, got %g", total)
	}
	// settleMu keeps a settlement wave or a snapshot out between the
	// event's log and its apply, so the journal order matches the order
	// credits become visible. Taking it (not auctionMu) means a
	// disbursement waits out a settlement, not an entire clock run.
	e.settleMu.Lock()
	defer e.settleMu.Unlock()
	teams := e.Teams()
	if len(teams) == 0 {
		return errors.New("market: no team accounts")
	}
	// The event records the resolved per-team credits, so replay never
	// recomputes a share.
	credits := make([]Credit, 0, len(teams))
	share := total / float64(len(teams))
	if share != 0 {
		for _, team := range teams {
			credits = append(credits, Credit{Team: team, Amount: share})
		}
	}
	ev := &Event{Kind: EvDisbursed, Policy: "equal-shares", Auction: e.AuctionCount(), Credits: credits}
	if err := e.emitEvent(ev); err != nil {
		return err
	}
	return e.applyDisbursed(ev)
}

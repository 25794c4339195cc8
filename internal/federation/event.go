package federation

import (
	"encoding/json"
	"fmt"

	"clustermarket/internal/journal"
	"clustermarket/internal/telemetry"
)

// Federation event kinds. Like the market's event stream, federation
// events record routing *results* — the wholesale order state after a
// decision, the quote a gossip pass produced — so replay is pure
// bookkeeping: no leg is resubmitted, no region re-settled, no quote
// recomputed.
const (
	// EvFedOrderSubmitted registers a routed order (legs priced and
	// ordered, first leg already booked in its region).
	EvFedOrderSubmitted = "fed-order-submitted"
	// EvFedOrderUpdated replaces an order's routing state wholesale after
	// an advance (win, failover, retirement) or a cancellation.
	EvFedOrderUpdated = "fed-order-updated"
	// EvFedGossip advances the gossip tick and, when Quote is present,
	// publishes one region's quote to the price board.
	EvFedGossip = "fed-gossip"
)

// EventSource is the firehose Source value the federation router
// publishes under; firehose consumers filtering routing events match
// on it and type-assert Payload to *FedEvent.
const EventSource = "fed"

// FedEvent is the single flat record type for the federation journal
// and the telemetry firehose. Order is a view built for the event, so
// reading a published one from a firehose subscription shares nothing
// with live routing state; replay validates a decoded one and copies it
// into the table (table.store).
// Stats rides along as the full post-mutation counter set — carrying
// the absolute values instead of deltas keeps replay idempotent per
// event.
type FedEvent struct {
	Kind  string    `json:"k"`
	Order *FedOrder `json:"order,omitempty"`
	Stats *Stats    `json:"stats,omitempty"`
	Tick  int       `json:"tick,omitempty"`
	Quote *Quote    `json:"quote,omitempty"`
}

// emitLocked materializes the event to the routing journal (when one
// is attached) and the telemetry firehose (when a subscriber is
// listening), and returns this event's journal error. Callers hold f.mu
// and mutate before they emit, so journal order matches mutation order.
// While the journal is Failing (a write outlasted its heal loop), the
// event is published but not written: catchUpLocked then covers it with
// a snapshot. The event is published either way.
func (f *Federation) emitLocked(ev *FedEvent) (err error) {
	if f.journal != nil && !f.journal.Failing() {
		if raw, jerr := json.Marshal(ev); jerr != nil {
			err = fmt.Errorf("federation: encode %s event: %w", ev.Kind, jerr)
		} else if _, jerr = f.journal.Append(raw); jerr != nil {
			err = fmt.Errorf("federation: journal %s event: %w", ev.Kind, jerr)
		}
	}
	f.fire.Publish(EventSource, ev.Kind, ev)
	return err
}

// catchUpLocked makes, while the journal is Failing, the one snapshot
// attempt that covers every mutation so far, a record that failed
// included; the first write that lands clears the state. A submit or a
// cancel makes it after its own event, a gossip pass or a settlement
// wave after its last mutation, so an outage costs a pass one image,
// not one an order.
func (f *Federation) catchUpLocked() error {
	if f.journal == nil || !f.journal.Failing() {
		return nil
	}
	return f.snapshotLocked()
}

// materializingLocked reports whether events are worth building at
// all: a journal is attached or a firehose subscriber is listening.
// Call sites check it before building a FedEvent so that the unwatched
// in-memory federation pays two branches on its hot paths — not an
// order view, a stats copy, and an event allocation that emitLocked
// would immediately discard. Callers must hold f.mu.
func (f *Federation) materializingLocked() bool {
	return f.journal != nil || f.fire.Active()
}

// applyEvent is the deterministic mutator replay dispatches through.
// Callers hold f.mu (or run single-threaded during recovery). Replay
// never publishes to the firehose: a recovered router does not re-emit
// its own history.
func (f *Federation) applyEvent(ev *FedEvent) error {
	switch ev.Kind {
	case EvFedOrderSubmitted, EvFedOrderUpdated:
		if ev.Order == nil || ev.Stats == nil {
			return fmt.Errorf("federation: replay: malformed %s event", ev.Kind)
		}
		// The record enters the table through the one validating seam; a
		// rejected record has written nothing.
		if err := f.table.store(ev.Order, ev.Kind == EvFedOrderSubmitted); err != nil {
			return err
		}
		f.stats = *ev.Stats
		return nil
	case EvFedGossip:
		tick := max(ev.Tick, f.board.Load().tick)
		if ev.Quote == nil {
			f.publishLocked(tick, 0, nil)
			return nil
		}
		ri, ok := f.table.regionIdx[ev.Quote.Region]
		if !ok {
			return fmt.Errorf("federation: replay: quote for unknown region %q", ev.Quote.Region)
		}
		f.publishLocked(tick, ri, ev.Quote)
		return nil
	default:
		return fmt.Errorf("federation: unknown event kind %q", ev.Kind)
	}
}

// AttachTelemetry attaches the firehose the router publishes routing
// events to, under source "fed". Pass the same firehose to each
// region's market.Config.Telemetry to get the regional order-book
// events on the same stream. Telemetry is independent of journaling:
// either, both, or neither may be attached.
func (f *Federation) AttachTelemetry(fire *telemetry.Firehose) {
	f.mu.Lock()
	f.fire = fire
	f.mu.Unlock()
}

// Telemetry returns the attached firehose, or nil.
func (f *Federation) Telemetry() *telemetry.Firehose {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fire
}

// Journal returns the router's attached journal, or nil — the /metrics
// exposition reads its counters.
func (f *Federation) Journal() *journal.Journal {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.journal
}

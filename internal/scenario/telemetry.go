package scenario

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

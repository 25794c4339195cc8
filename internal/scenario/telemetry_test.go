package scenario

import (
	"fmt"
	"strings"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/stats"
	"clustermarket/internal/telemetry"
)

// drainRun runs the scenario with a firehose subscriber attached and
// returns the live report plus the full event stream. The subscriber's
// buffer is sized far above any catalog run's event volume, and the
// test fails if even one event was dropped: reconstruction is only
// meaningful over a complete stream.
func drainRun(t *testing.T, kind string, sc *Scenario, cfg Config) (*Report, []telemetry.Event) {
	t.Helper()
	fire := telemetry.NewFirehose()
	sub := fire.Subscribe(1 << 16)
	cfg.Telemetry = fire

	b, err := NewBackend(kind, cfg)
	if err != nil {
		t.Fatalf("NewBackend(%s): %v", kind, err)
	}
	defer b.Close()
	rep, err := Run(sc, b, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", sc.Name, kind, err)
	}
	sub.Close()
	var events []telemetry.Event
	for ev := range sub.C {
		events = append(events, ev)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d events; reconstruction needs the complete stream", d)
	}
	if len(events) == 0 {
		t.Fatal("firehose produced no events")
	}
	return rep, events
}

// TestFingerprintReconstructibleFromFirehose is the telemetry pipeline's
// losslessness proof: for every catalog scenario, on both backends, the
// report rebuilt from the firehose stream alone must fingerprint
// bit-identically to the live run's, with no journal attached (telemetry
// must not depend on the WAL).
func TestFingerprintReconstructibleFromFirehose(t *testing.T) {
	for _, sc := range Catalog() {
		for _, kind := range backendKinds {
			t.Run(sc.Name+"/"+kind, func(t *testing.T) {
				cfg := Config{Seed: 42, Epochs: 6}
				rep, events := drainRun(t, kind, sc, cfg)
				rec, err := ReconstructReport(sc.Name, kind, cfg.Seed, events)
				if err != nil {
					t.Fatalf("ReconstructReport: %v", err)
				}
				if got, want := rec.Fingerprint(), rep.Fingerprint(); got != want {
					t.Errorf("reconstructed fingerprint diverges\n got %s\nwant %s\nreconstructed: %+v\nlive: %+v",
						got, want, rec.Epochs, rep.Epochs)
				}
				t.Logf("%s fingerprint %s", t.Name(), rep.Fingerprint()[:16])
			})
		}
	}
}

// TestFirehoseCoexistsWithJournal runs the crash-recovery scenario —
// journaled, with a mid-run kill and WAL resurrection — under a
// firehose subscriber. The stream must still reconstruct the live
// fingerprint: replay publishes nothing, so the resurrected backend's
// stream continues seamlessly from the pre-crash events.
func TestFirehoseCoexistsWithJournal(t *testing.T) {
	sc, err := Lookup("crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"exchange", "federation"} {
		t.Run(kind, func(t *testing.T) {
			cfg := Config{Seed: 7, Epochs: 6, JournalDir: t.TempDir(), CrashEpoch: 3}
			rep, events := drainRun(t, kind, sc, cfg)
			rec, err := ReconstructReport(sc.Name, kind, cfg.Seed, events)
			if err != nil {
				t.Fatalf("ReconstructReport: %v", err)
			}
			if got, want := rec.Fingerprint(), rep.Fingerprint(); got != want {
				t.Errorf("reconstructed fingerprint diverges across a crash\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestReconstructReportHandBuiltStreams feeds ReconstructReport streams
// no catalog run produces (no run refuses a submission), so the reject
// and storm-rollback branches and the malformed-stream errors are
// reached: a rejected product order, a storm pair whose second leg is
// refused and whose booked first leg is cancelled, and streams whose
// epoch markers do not nest.
func TestReconstructReportHandBuiltStreams(t *testing.T) {
	start := func(epoch int) telemetry.Event {
		return telemetry.Event{Source: EventSource, Kind: EvEpochStart, Payload: &EpochStartEvent{Epoch: epoch, Teams: 3}}
	}
	end := func(epoch int) telemetry.Event {
		return telemetry.Event{Source: EventSource, Kind: EvEpochEnd, Payload: &EpochEndEvent{Epoch: epoch}}
	}
	reject := func(kind string) telemetry.Event {
		return telemetry.Event{Source: EventSource, Kind: EvSubmitRejected, Payload: &RejectEvent{Epoch: 0, Kind: kind}}
	}
	book := func(team string, id int) telemetry.Event {
		return telemetry.Event{Source: market.EventSource, Kind: market.EvOrderSubmitted,
			Payload: &market.Event{Kind: market.EvOrderSubmitted, Team: team, OrderID: id}}
	}
	cancel := func(id int) telemetry.Event {
		return telemetry.Event{Source: market.EventSource, Kind: market.EvOrderCancelled,
			Payload: &market.Event{Kind: market.EvOrderCancelled, OrderID: id}}
	}
	cases := []struct {
		name                    string
		events                  []telemetry.Event
		wantRejected, wantStorm int
		wantErr                 string
	}{
		{name: "rejected product order",
			events:       []telemetry.Event{start(0), reject("product"), end(0)},
			wantRejected: 1},
		// One pair books both legs; the next books storm-a's leg, is refused
		// storm-b's and withdraws the first, as injectTraderPair does.
		{name: "storm pair rolled back",
			events: []telemetry.Event{start(0),
				book("storm-a", 1), book("storm-b", 2),
				book("storm-a", 3), cancel(3), reject("storm"),
				end(0)},
			wantRejected: 1, wantStorm: 2},
		{name: "epoch starts inside an open epoch",
			events:  []telemetry.Event{start(0), start(1), end(1)},
			wantErr: "epoch 1 started before epoch 0 ended"},
		{name: "epoch ends without a start",
			events:  []telemetry.Event{end(0)},
			wantErr: "epoch-end for epoch 0 without matching start"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := ReconstructReport("hand-built", "exchange", 1, tc.events)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Epochs) != 1 {
				t.Fatalf("reconstructed %d epochs, want 1", len(rep.Epochs))
			}
			if got := rep.Epochs[0]; got.Rejected != tc.wantRejected || got.StormBids != tc.wantStorm {
				t.Errorf("Rejected/StormBids = %d/%d, want %d/%d", got.Rejected, got.StormBids, tc.wantRejected, tc.wantStorm)
			}
		})
	}
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

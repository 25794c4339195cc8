package federation

// Per-region circuit breaker: the state machine in isolation, then the
// integration seams — settlement faults feed it, gossip faults do not,
// the router skips open regions and closes the breaker on a successful
// half-open probe, and every transition is published to the firehose.

import (
	"errors"
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// settleTolerant runs one settlement round, tolerating the organic
// empty-book error: the fault seam, breaker feed, and gossip round all
// run before the clock, which is what these tests exercise.
func settleTolerant(t *testing.T, f *Federation, region string) {
	t.Helper()
	if _, err := f.SettleRegion(region); err != nil && errors.Is(err, fault.ErrInjected) {
		t.Fatalf("settle %s: %v", region, err)
	}
}

func breakerOf(t *testing.T, f *Federation, region string) BreakerStatus {
	t.Helper()
	for _, bs := range f.BreakerStates() {
		if bs.Region == region {
			return bs
		}
	}
	t.Fatalf("no breaker for region %q", region)
	return BreakerStatus{}
}

// TestBreakerStateMachine drives the breakerSet through its full
// lifecycle: closed → open at the failure threshold, open → half-open
// after the denial quota, half-open → open (doubled quota) on a failed
// probe, half-open → closed on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	bs := newBreakerSet([]*Region{{name: "eu"}})
	b := &bs.byRegion[0]

	for n := 0; n < breakerThreshold-1; n++ {
		bs.failure(0)
	}
	if b.state != BreakerClosed {
		t.Fatalf("state below threshold = %s", b.state)
	}
	bs.failure(0)
	if b.state != BreakerOpen || b.opens != 1 {
		t.Fatalf("state at threshold = %s (opens %d)", b.state, b.opens)
	}
	quota1 := b.quota
	if quota1 != quotaFor("eu", 1) {
		t.Fatalf("first quota = %d, want %d", quota1, quotaFor("eu", 1))
	}

	// quota-1 denials, then the quota-th attempt is the half-open probe.
	for n := 0; n < quota1-1; n++ {
		if bs.allow(0) {
			t.Fatalf("denial %d allowed", n)
		}
	}
	if !bs.allow(0) {
		t.Fatal("probe attempt denied")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state after quota = %s", b.state)
	}

	// Failed probe: reopen with a doubled quota.
	bs.failure(0)
	if b.state != BreakerOpen || b.opens != 2 {
		t.Fatalf("state after failed probe = %s (opens %d)", b.state, b.opens)
	}
	if b.quota <= quota1 {
		t.Errorf("reopen quota %d did not grow past %d", b.quota, quota1)
	}

	// Walk to half-open again; a successful probe closes.
	for b.state == BreakerOpen {
		bs.allow(0)
	}
	bs.success(0)
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("state after successful probe = %s (fails %d)", b.state, b.fails)
	}
}

// TestQuotaDeterministicJitter pins the quota schedule: pure in its
// inputs, doubling with reopen count, jitter bounded.
func TestQuotaDeterministicJitter(t *testing.T) {
	for _, region := range []string{"hot", "cold", "eu-west"} {
		for opens := 1; opens <= 4; opens++ {
			q := quotaFor(region, opens)
			if q != quotaFor(region, opens) {
				t.Fatalf("quotaFor(%q, %d) not deterministic", region, opens)
			}
			base := breakerBaseQuota << uint(opens-1)
			if q < base || q >= base+breakerJitterSpan {
				t.Errorf("quotaFor(%q, %d) = %d outside [%d, %d)", region, opens, q, base, base+breakerJitterSpan)
			}
		}
	}
}

// TestSettleFaultFeedsBreaker: consecutive injected settlement failures
// open the region's breaker; the first healthy settlement closes it. Both
// drivers run the one settlement driver: under Tick the failing region
// runs no clock and keeps its orders Open while the other region settles.
func TestSettleFaultFeedsBreaker(t *testing.T) {
	for _, drive := range []string{"settle-region", "tick"} {
		t.Run(drive, func(t *testing.T) {
			f := hotCold(t)
			inj := fault.New()
			f.AttachFaults(inj)
			hotEx, coldEx := f.Region("hot").Exchange(), f.Region("cold").Exchange()
			var hotID int
			if drive == "tick" {
				var err error
				if hotID, err = f.SubmitProduct("team", "batch-compute", 1, []string{"hot-r1"}, 1000); err != nil {
					t.Fatal(err)
				}
				if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 1000); err != nil {
					t.Fatal(err)
				}
			}

			inj.Arm([]fault.Window{{Op: fault.OpRegionSettle, Scope: "hot", Kind: fault.Unreachable, Count: breakerThreshold}})
			for n := 0; n < breakerThreshold; n++ {
				if drive == "settle-region" {
					if _, err := f.SettleRegion("hot"); !errors.Is(err, fault.ErrInjected) {
						t.Fatalf("settle %d = %v, want injected failure", n, err)
					}
					continue
				}
				ticks := f.Tick()
				if hot := ticks[0]; hot.Region != "hot" || hot.Record != nil || !errors.Is(hot.Err, fault.ErrUnreachable) {
					t.Fatalf("tick %d: hot = %+v, want the injected failure", n, hot)
				}
				if cold := ticks[1]; cold.Err != nil || (n == 0) != (cold.Record != nil) {
					t.Fatalf("tick %d: cold = %+v, want it settled once, then idle", n, cold)
				}
			}
			if drive == "tick" {
				if n := hotEx.AuctionCount(); n != 0 {
					t.Fatalf("hot ran %d auctions behind a failed settlement seam", n)
				}
				if fo, _ := f.Order(hotID); fo.Status != market.Open || hotEx.OpenOrderCount() != 1 {
					t.Fatalf("hot's order = %s with %d open in its book, want it still Open", fo.Status, hotEx.OpenOrderCount())
				}
				if n := coldEx.AuctionCount(); n != 1 {
					t.Fatalf("cold ran %d auctions, want 1", n)
				}
			}
			hot := breakerOf(t, f, "hot")
			if hot.State != BreakerOpen || hot.Fails != breakerThreshold || hot.Opens != 1 {
				t.Fatalf("hot breaker = %+v, want open after %d failures", hot, breakerThreshold)
			}
			if cold := breakerOf(t, f, "cold"); cold.State != BreakerClosed {
				t.Fatalf("cold breaker = %+v, want closed", cold)
			}

			// Settlement is not gated by the breaker (it is the health probe the
			// partition heals through): the next clean round closes it.
			if drive == "settle-region" {
				settleTolerant(t, f, "hot")
			} else if hot := f.Tick()[0]; hot.Record == nil || errors.Is(hot.Err, fault.ErrInjected) {
				t.Fatalf("clean tick: hot = %+v, want its auction run", hot)
			}
			if hot = breakerOf(t, f, "hot"); hot.State != BreakerClosed || hot.Fails != 0 {
				t.Fatalf("hot breaker after healthy settle = %+v", hot)
			}
		})
	}
}

// quoteTick returns the gossip tick of the region's board quote.
func quoteTick(t *testing.T, f *Federation, region string) int {
	t.Helper()
	for _, q := range f.Board() {
		if q.Region == region {
			return q.Tick
		}
	}
	t.Fatalf("no quote for region %q", region)
	return 0
}

// TestGossipFaultDoesNotFeedBreaker: a lost gossip round degrades the
// price board, not region health. The region keeps its old quote; under
// Tick the other region's quote advances.
func TestGossipFaultDoesNotFeedBreaker(t *testing.T) {
	for _, drive := range []string{"settle-region", "tick"} {
		t.Run(drive, func(t *testing.T) {
			f := hotCold(t)
			inj := fault.New()
			f.AttachFaults(inj)
			before := f.Gossip()

			inj.Arm([]fault.Window{{Op: fault.OpRegionGossip, Scope: "hot", Kind: fault.Unreachable, Count: 1}})
			if drive == "settle-region" {
				settleTolerant(t, f, "hot")
			} else {
				for _, rt := range f.Tick() {
					if rt.Err != nil {
						t.Fatalf("tick: %s = %v", rt.Region, rt.Err)
					}
				}
				if got := quoteTick(t, f, "cold"); got != before+1 {
					t.Fatalf("cold's quote at tick %d, want %d", got, before+1)
				}
			}
			if inj.Injected() != 1 {
				t.Fatalf("gossip window not consumed once: injected %d", inj.Injected())
			}
			if got := quoteTick(t, f, "hot"); got != before || f.GossipTick() != before+1 {
				t.Fatalf("hot's quote at tick %d on a clock at %d, want it left at %d", got, f.GossipTick(), before)
			}
			if hot := breakerOf(t, f, "hot"); hot.State != BreakerClosed || hot.Fails != 0 {
				t.Fatalf("lost gossip fed the breaker: %+v", hot)
			}
		})
	}
}

// openBreaker drives `region` to an open breaker via injected
// settlement failures, restoring an empty fault schedule after.
func openBreaker(t *testing.T, f *Federation, inj *fault.Injector, region string) {
	t.Helper()
	inj.Arm([]fault.Window{{Op: fault.OpRegionSettle, Scope: region, Kind: fault.Unreachable, Count: breakerThreshold}})
	for n := 0; n < breakerThreshold; n++ {
		if _, err := f.SettleRegion(region); err == nil {
			t.Fatal("injected settle succeeded")
		}
	}
	inj.Arm(nil)
	if got := breakerOf(t, f, region); got.State != BreakerOpen {
		t.Fatalf("breaker = %+v, want open", got)
	}
}

// TestRouterSkipsOpenRegion: with the cheap region's breaker open, a
// cross-region order lands on the expensive-but-healthy leg instead of
// failing, and the skipped leg records why.
func TestRouterSkipsOpenRegion(t *testing.T) {
	f := hotCold(t)
	inj := fault.New()
	f.AttachFaults(inj)
	// cold is nearly idle, so it is the cheapest leg by a wide margin.
	openBreaker(t, f, inj, "cold")

	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"hot-r1", "cold-r1"}, 1000)
	if err != nil {
		t.Fatalf("submit with one open breaker: %v", err)
	}
	fo, _ := f.Order(id)
	if got := fo.Legs[fo.Active].Region; got != "hot" {
		t.Fatalf("order routed to %q, want the healthy hot region", got)
	}
	for _, leg := range fo.Legs {
		if leg.Region == "cold" && leg.Err == "" {
			t.Error("skipped cold leg carries no error")
		}
	}
}

// TestBreakerProbeClosesViaRouting: an open breaker denies routing
// attempts until its quota arms the half-open probe; the probe order
// goes through and closes the breaker.
func TestBreakerProbeClosesViaRouting(t *testing.T) {
	f := hotCold(t)
	inj := fault.New()
	f.AttachFaults(inj)
	openBreaker(t, f, inj, "cold")
	quota := quotaFor("cold", 1)

	denied := 0
	for {
		if denied > quota {
			t.Fatalf("still denied after %d attempts (quota %d)", denied, quota)
		}
		// cold-only orders have no failover leg: a denial fails the submit.
		if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 1000); err != nil {
			denied++
			continue
		}
		break
	}
	if denied != quota-1 {
		t.Errorf("denied %d attempts before the probe, want quota-1 = %d", denied, quota-1)
	}
	if got := breakerOf(t, f, "cold"); got.State != BreakerClosed {
		t.Fatalf("breaker after successful probe = %+v, want closed", got)
	}
}

// TestBreakerEventsOnFirehose: every breaker transition is published as
// a telemetry-only breaker-state-changed event.
func TestBreakerEventsOnFirehose(t *testing.T) {
	f := hotCold(t)
	inj := fault.New()
	f.AttachFaults(inj)
	fire := telemetry.NewFirehose()
	sub := fire.Subscribe(256)
	defer sub.Close()
	f.AttachTelemetry(fire)

	openBreaker(t, f, inj, "hot")
	settleTolerant(t, f, "hot") // a clean round closes the breaker

	var changes []*BreakerChange
drain:
	for {
		select {
		case ev := <-sub.C:
			if ev.Kind != EvFedBreaker {
				continue
			}
			fe, ok := ev.Payload.(*FedEvent)
			if !ok || fe.Breaker == nil {
				t.Fatalf("breaker event payload = %#v", ev.Payload)
			}
			changes = append(changes, fe.Breaker)
		default:
			break drain
		}
	}
	if len(changes) != 2 {
		t.Fatalf("breaker transitions = %d (%+v), want open then close", len(changes), changes)
	}
	if changes[0].Region != "hot" || changes[0].From != BreakerClosed || changes[0].To != BreakerOpen {
		t.Errorf("first transition = %+v, want closed→open", changes[0])
	}
	if changes[1].From != BreakerOpen || changes[1].To != BreakerClosed {
		t.Errorf("second transition = %+v, want open→closed", changes[1])
	}
}

// TestStaleQuoteSuspectDeprioritized: a region whose gossip is lost past
// the staleness bound keeps routing, but behind every fresh-quoted leg —
// even when its frozen quote is the cheapest on the board.
func TestStaleQuoteSuspectDeprioritized(t *testing.T) {
	f := hotCold(t)
	inj := fault.New()
	f.AttachFaults(inj)

	// Seed the board with fresh quotes for both regions.
	f.Gossip()

	// Lose cold's gossip for more rounds than the staleness bound while
	// the clock advances (each settlement is a gossip round).
	inj.Arm([]fault.Window{{Op: fault.OpRegionGossip, Scope: "cold", Kind: fault.Unreachable, Count: staleQuoteBound + 1}})
	for n := 0; n < staleQuoteBound+1; n++ {
		settleTolerant(t, f, "cold")
	}
	inj.Arm(nil)
	// One clean hot round refreshes hot's quote, so only cold's is frozen
	// from before the cut.
	settleTolerant(t, f, "hot")

	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"hot-r1", "cold-r1"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := f.Order(id)
	var coldLeg *Leg
	for _, leg := range fo.Legs {
		if leg.Region == "cold" {
			coldLeg = leg
		}
	}
	if coldLeg == nil || !coldLeg.Suspect {
		t.Fatalf("cold leg not marked suspect: %+v", coldLeg)
	}
	// cold is far cheaper, but its quote is frozen from before the cut:
	// the fresh-quoted hot leg must outrank it.
	if got := fo.Legs[fo.Active].Region; got != "hot" {
		t.Errorf("order routed to stale-quoted %q, want fresh hot", got)
	}
	// The mark outlives a booking: a cold-only order's one leg is booked
	// and still suspect, and it still is once a settlement wrote its status.
	solo, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	settleTolerant(t, f, "cold")
	if got, _ := f.Order(solo); got.Legs[0].OrderID < 0 || !got.Legs[0].Suspect || got.Legs[0].Status == market.Open {
		t.Errorf("cold-only leg after its settlement: %+v, want booked, settled and suspect", got.Legs[0])
	}
}

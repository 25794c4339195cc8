package federation

// Region partitions at the router's fault seams: a failed settlement
// seam skips the region's clock, a lost gossip leaves its quote stale
// and, past the staleness bound, deprioritized, and a partition that has
// stopped firing leaves no trace in routing.

import (
	"errors"
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/market"
)

// settleTolerant runs one settlement round, tolerating the organic
// empty-book error: the fault seams and the gossip window run before
// the clock, which is what these tests exercise.
func settleTolerant(t *testing.T, f *Federation, region string) {
	t.Helper()
	if _, err := f.SettleRegion(region); err != nil && errors.Is(err, fault.ErrInjected) {
		t.Fatalf("settle %s: %v", region, err)
	}
}

// TestSettleFaultSkipsRegion: a region failing its settlement seam gets
// the injected error and runs no clock; the first clean round settles it.
// Both drivers run the one settlement driver: under Tick the failing
// region keeps its orders Open while the other region settles.
func TestSettleFaultSkipsRegion(t *testing.T) {
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

			const failed = 3
			inj.Arm([]fault.Window{{Op: fault.OpRegionSettle, Scope: "hot", Kind: fault.Unreachable, Count: failed}})
			for n := 0; n < failed; n++ {
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

			// The next clean round runs hot's clock.
			if drive == "settle-region" {
				settleTolerant(t, f, "hot")
			} else if hot := f.Tick()[0]; hot.Record == nil || errors.Is(hot.Err, fault.ErrInjected) {
				t.Fatalf("clean tick: hot = %+v, want its auction run", hot)
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

// TestGossipFaultLeavesQuoteStale: a lost gossip round degrades the
// price board only. The region keeps its old quote; under Tick the other
// region's quote advances.
func TestGossipFaultLeavesQuoteStale(t *testing.T) {
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
		})
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

// TestHealedPartitionLeavesNoTrace: once a settlement partition of cold
// stops firing, cold takes orders again at once: a cold-only order books,
// and a cross-region order books its (cheaper) cold leg with no leg
// refused.
func TestHealedPartitionLeavesNoTrace(t *testing.T) {
	f := hotCold(t)
	inj := fault.New()
	f.AttachFaults(inj)
	inj.Arm([]fault.Window{{Op: fault.OpRegionSettle, Scope: "cold", Kind: fault.Unreachable, Count: 3}})
	for n := 0; n < 3; n++ {
		if _, err := f.SettleRegion("cold"); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("settle %d = %v, want injected failure", n, err)
		}
	}
	inj.Arm(nil)

	if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 1000); err != nil {
		t.Errorf("cold-only order after the partition healed: %v", err)
	}
	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"hot-r1", "cold-r1"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fo, _ := f.Order(id)
	if got := fo.Legs[fo.Active].Region; got != "cold" {
		t.Errorf("cross-region order booked in %q, want the cheaper cold region", got)
	}
	for _, leg := range fo.Legs {
		if leg.Err != "" {
			t.Errorf("leg %s refused: %s", leg.Region, leg.Err)
		}
	}
}

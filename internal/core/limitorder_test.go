package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clustermarket/internal/resource"
)

// oneBundleCase draws a market for the round loop's two shortcuts: a
// shape's one-bundle pure buyers kept in limit order, of whom a round
// visits only those priced over their limits, and quiet rounds, which
// add last round's step again. Each region's buyers pick their bundles
// from a few row sets, so one-bundle buyers share rows with the bundles
// of multi-bundle buyers (scalar and vector limits) and with a twin of
// two identical bundles. A one-bundle buyer's limit is spread, one of
// two values many share, or below its cost at the reserve prices. Half
// the markets add two deep-pocketed one-bundle buyers of one row set to
// region 0 and stop the clock after 60 to 160 rounds, so that region's
// lane runs out in a long quiet climb while the others clear. Bid order
// is shuffled.
func oneBundleCase(rng *rand.Rand) (*resource.Registry, []*Bid, Config) {
	regions, per := rng.Intn(3)+1, rng.Intn(2)+1
	var pools []resource.Pool
	for r := 0; r < regions; r++ {
		for c := 0; c < per; c++ {
			cl := fmt.Sprintf("r%dc%d", r, c)
			pools = append(pools, resource.Pool{Cluster: cl, Dim: resource.CPU}, resource.Pool{Cluster: cl, Dim: resource.RAM})
		}
	}
	reg := resource.NewRegistry(pools...)
	catalog := [][2]float64{{1, 4}, {2, 2}, {0.5, 8}}
	// row draws one of region r's row sets: a catalog item, once or
	// twice, on one of its clusters.
	row := func(r int) resource.Vector {
		at, p, q := 2*(r*per+rng.Intn(per)), catalog[rng.Intn(len(catalog))], float64(rng.Intn(2)+1)
		v := reg.Zero()
		v[at], v[at+1] = p[0]*q, p[1]*q
		return v
	}
	limit := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return rng.Float64() // under any bundle's cost at the reserve
		case 1, 2, 3:
			return float64(25 * (rng.Intn(2) + 1))
		}
		return float64(rng.Intn(150) + 5)
	}
	var bids []*Bid
	for u, n := 0, rng.Intn(50)+10; u < n; u++ {
		r := rng.Intn(regions)
		b := &Bid{User: fmt.Sprintf("u%d", u)}
		if rng.Intn(5) < 3 {
			b.Bundles, b.Limit = []resource.Vector{row(r)}, limit()
			bids = append(bids, b)
			continue
		}
		for k := rng.Intn(2) + 2; k > 0; k-- {
			b.Bundles = append(b.Bundles, row(r))
		}
		if rng.Intn(2) == 0 {
			for range b.Bundles {
				b.BundleLimits = append(b.BundleLimits, float64(rng.Intn(120)+5))
			}
		} else {
			b.Limit = float64(rng.Intn(120) + 5)
		}
		bids = append(bids, b)
	}
	twin, lim := row(0), float64(rng.Intn(60)+20)
	bids = append(bids, &Bid{User: "twin", Bundles: []resource.Vector{twin, twin.Clone()}, BundleLimits: []float64{lim, lim / 3}})
	maxRounds := 300
	if rng.Intn(2) == 0 {
		hot := row(0)
		for i := 0; i < 2; i++ {
			bids = append(bids, &Bid{User: fmt.Sprintf("hot%d", i), Limit: float64(5000 + rng.Intn(4000)), Bundles: []resource.Vector{hot.Clone()}})
		}
		maxRounds = 60 + rng.Intn(100)
	}
	for r := 0; r < regions; r++ {
		v := reg.Zero()
		for c := 0; c < per; c++ {
			at := 2 * (r*per + c)
			v[at], v[at+1] = -float64(4+rng.Intn(8)), -float64(8+rng.Intn(16))
		}
		bids = append(bids, &Bid{User: fmt.Sprintf("op%d", r), Limit: -float64(rng.Intn(10)), Bundles: []resource.Vector{v}})
	}
	rng.Shuffle(len(bids), func(i, j int) { bids[i], bids[j] = bids[j], bids[i] })
	start := reg.Zero()
	for i := range start {
		start[i] = 0.5 + rng.Float64()*2
	}
	return reg, bids, Config{
		Start:         start,
		Policy:        Capped{Alpha: 0.01 + rng.Float64()*0.1, Delta: 0.2 + rng.Float64(), MinStep: 0.005},
		MaxRounds:     maxRounds,
		RecordHistory: true,
	}
}

// limitOrders tallies, over an auction's lanes after a run, the
// one-bundle buyers' shape members popped off their limit order and those
// still in it, and the shapes whose members mix one-bundle buyers' with
// others'.
func limitOrders(a *Auction) (popped, kept, mixed int) {
	for _, c := range a.laneList() {
		for s := range c.ordAt {
			popped += int(c.ordLo[s] - c.ordAt[s])
			kept += int(c.mAt[s+1] - c.ordLo[s])
			if c.mAt[s] < c.ordAt[s] && c.ordAt[s] < c.mAt[s+1] {
				mixed++
			}
		}
	}
	return popped, kept, mixed
}

// TestOneBundleBuyersMatchReference is the differential on oneBundleCase's
// markets: the clock agrees with ReferenceRun bit for bit while it visits
// a shape's one-bundle buyers only as their limits are passed and re-adds
// the step in quiet rounds. The generator must engage both, in shapes
// that also hold multi-bundle members, and hold some lanes. The seeds are
// negative, as the ones FuzzClockMatchesReference draws these markets for
// when regional is set.
func TestOneBundleBuyersMatchReference(t *testing.T) {
	var sum ClockStats
	var popped, kept, mixed int
	for seed := int64(-1); seed >= -120; seed-- {
		reg, bids, cfg := oneBundleCase(rand.New(rand.NewSource(seed)))
		sum.Add(mustMatchReference(t, fmt.Sprintf("seed %d", seed), reg, bids, cfg).Clock)
		a, err := NewAuction(reg, bids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Run()
		p, k, m := limitOrders(a)
		popped, kept, mixed = popped+p, kept+k, mixed+m
	}
	if sum.Reused == 0 || sum.Held == 0 || popped == 0 || kept == 0 || mixed == 0 {
		t.Fatalf("the shortcuts barely engaged over 120 markets: %d popped, %d kept, %d mixed shapes; %+v", popped, kept, mixed, sum)
	}
}

// TestCostAtLimitStaysChosen: a one-bundle buyer whose cost reaches its
// limit exactly is not popped; it leaves the round after, when the cost
// passes the limit. The step is 0.5 a round, exact in binary, so the
// price reaches 3, the buyer's limit, at round 4.
func TestCostAtLimitStaysChosen(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-1}}},
		{User: "edge", Limit: 3, Bundles: []resource.Vector{{1}}},
		{User: "rich", Limit: 100, Bundles: []resource.Vector{{1}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 1, Delta: 0.5, MinStep: 0.5}, RecordHistory: true}
	res := mustMatchReference(t, "cost at limit", reg, bids, cfg)
	if h := res.History[4]; h.Prices[0] != 3 || h.ActiveBidders != 3 {
		t.Fatalf("round 4: price %v, %d active; want 3 and all three", h.Prices[0], h.ActiveBidders)
	}
	if res.DropRound[1] != 5 || !res.IsWinner(2) || res.Clock.Dropped != 1 {
		t.Fatalf("edge dropped at round %d, rich won %v, %d dropped; want round 5, true, 1", res.DropRound[1], res.IsWinner(2), res.Clock.Dropped)
	}
}

// TestEqualLimitsDropTogether: one-bundle buyers of one row set at one
// limit are popped in the same round, and only they are re-chosen beside
// the seller, whose singleton bundle is re-priced every round.
func TestEqualLimitsDropTogether(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-2}}},
		{User: "a", Limit: 20, Bundles: []resource.Vector{{1}}},
		{User: "rich", Limit: 100, Bundles: []resource.Vector{{1}}},
		{User: "b", Limit: 20, Bundles: []resource.Vector{{1}}},
		{User: "c", Limit: 20, Bundles: []resource.Vector{{1}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 0.5, Delta: 0.5, MinStep: 0.1}, RecordHistory: true}
	res := mustMatchReference(t, "equal limits", reg, bids, cfg)
	d := res.DropRound[1]
	if d <= 0 || res.DropRound[3] != d || res.DropRound[4] != d || !res.IsWinner(2) {
		t.Fatalf("drop rounds %v, rich won %v; want a, b and c out in one round", res.DropRound, res.IsWinner(2))
	}
	if c := res.Clock; c.Dropped != 3 || c.Rechosen != res.Rounds-1+3 {
		t.Errorf("%d dropped, %d re-chosen over %d rounds; want 3 and the seller every round past 0 plus a, b and c", c.Dropped, c.Rechosen, res.Rounds)
	}
}

// TestRetiredAtRoundZeroNeverRechosen: a one-bundle buyer priced out at
// the reserve retires at round 0 and stays at the front of its shape's
// limit order until the first re-price pops it, which must not list its
// owner again.
func TestRetiredAtRoundZeroNeverRechosen(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-10}}},
		{User: "broke", Limit: 0.5, Bundles: []resource.Vector{{8}}},
		{User: "a", Limit: 100, Bundles: []resource.Vector{{8}}},
		{User: "b", Limit: 30, Bundles: []resource.Vector{{8}}},
		{User: "rival", Limit: 60, Bundles: []resource.Vector{{8}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}, RecordHistory: true}
	res := mustMatchReference(t, "retired at round 0", reg, bids, cfg)
	if res.DropRound[1] != 0 || !res.IsWinner(2) || res.IsWinner(3) || res.IsWinner(4) {
		t.Fatalf("drop rounds %v, winners %v; want broke out at round 0 and a the only buyer winning", res.DropRound, res.Winners)
	}
	if c := res.Clock; c.Dropped != 2 || c.Switched != 2 || c.Rechosen != res.Rounds-1+2 {
		t.Errorf("%d dropped, %d switched, %d re-chosen over %d rounds; want b and rival only, beside the seller every round past 0",
			c.Dropped, c.Switched, c.Rechosen, res.Rounds)
	}
}

// TestHeldLaneQuietRoundsEndPostStep: a lane whose two buyers can outbid
// each other forever switches no choice past round 0, so every later
// round re-adds the step, and the lane runs out at the reference's
// post-step prices: 1 + 50 steps of 0.25. The other lane clears at round
// 0 and settles on its own.
func TestHeldLaneQuietRoundsEndPostStep(t *testing.T) {
	reg := cpuRegistry(2)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-1, 0}}},
		{User: "x", Limit: 1e6, Bundles: []resource.Vector{{1, 0}}},
		{User: "y", Limit: 1e6, Bundles: []resource.Vector{{1, 0}}},
		{User: "op2", Limit: -0.000001, Bundles: []resource.Vector{{0, -5}}},
		{User: "z", Limit: 50, Bundles: []resource.Vector{{0, 3}}},
	}
	cfg := Config{Start: resource.Vector{1, 1}, Policy: Capped{Alpha: 0.25, Delta: 0.5, MinStep: 0.25}, MaxRounds: 50, RecordHistory: true}
	res := mustMatchReference(t, "held quiet lane", reg, bids, cfg)
	if res.Converged || res.Prices[0] != 13.5 || res.Prices[1] != 1 || !res.IsWinner(4) {
		t.Fatalf("converged %v at prices %v, z won %v; want held at 13.5, the other lane at its reserve", res.Converged, res.Prices, res.IsWinner(4))
	}
	if c := res.Clock; c.Held != 1 || c.Reused != 49 || c.Switched != 0 {
		t.Errorf("%d held, %d rounds re-used their step, %d switched; want 1, 49, 0", c.Held, c.Reused, c.Switched)
	}
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("Run: %v, want ErrNoConvergence", err)
	}
}

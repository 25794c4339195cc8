package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"clustermarket/internal/resource"
)

// randomRegionalMarket builds a market with mostly-regional bidding —
// the paper's planet-wide topology: pools grouped into regions, each bid
// confined to one region's pools, with an occasional two-region bridge
// bid so the component structure varies across seeds. It returns the
// bids alongside the registry.
func randomRegionalMarket(rng *rand.Rand, nRegions int) (*resource.Registry, []*Bid) {
	regionPools := make([][]int, nRegions)
	var pools []resource.Pool
	for reg := 0; reg < nRegions; reg++ {
		n := rng.Intn(3) + 1
		for k := 0; k < n; k++ {
			regionPools[reg] = append(regionPools[reg], len(pools))
			pools = append(pools, resource.Pool{
				Cluster: fmt.Sprintf("r%d-c%d", reg, k), Dim: resource.CPU,
			})
		}
	}
	registry := resource.NewRegistry(pools...)

	n := rng.Intn(40) + nRegions
	bids := make([]*Bid, 0, n)
	for u := 0; u < n; u++ {
		// Pick the bid's pool universe: one region, or (1 in 8) a bridge
		// across two regions.
		universe := regionPools[rng.Intn(nRegions)]
		if nRegions > 1 && rng.Intn(8) == 0 {
			universe = append(append([]int{}, universe...), regionPools[rng.Intn(nRegions)]...)
		}
		nAlt := rng.Intn(3) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		kind := rng.Intn(4) // 0,1: buyer  2: seller  3: trader
		for a := 0; a < nAlt; a++ {
			v := make(resource.Vector, registry.Len())
			for k := 0; k < rng.Intn(3)+1; k++ {
				q := float64(rng.Intn(20) + 1)
				switch {
				case kind == 2:
					q = -q
				case kind == 3 && rng.Intn(2) == 0:
					q = -q
				}
				v[universe[rng.Intn(len(universe))]] = q
			}
			if v.IsZero() {
				v[universe[rng.Intn(len(universe))]] = 1
			}
			bundles = append(bundles, v)
		}
		b := &Bid{User: fmt.Sprintf("u%d", u), Bundles: bundles}
		limit := func() float64 {
			if b.Class() == PureSeller {
				return -float64(rng.Intn(100) + 1)
			}
			return float64(rng.Intn(250) + 10)
		}
		if rng.Intn(2) == 0 {
			b.BundleLimits = make([]float64, len(bundles))
			for i := range b.BundleLimits {
				b.BundleLimits[i] = limit()
			}
		} else {
			b.Limit = limit()
		}
		bids = append(bids, b)
	}
	return registry, bids
}

// randomPartitionPolicy draws a Capped step with random α, δ and
// MinStep, half the time a floor far below any α·z (quantities are
// whole units), so the differential covers steps the floor decides,
// steps the cap decides and steps proportional to z.
func randomPartitionPolicy(rng *rand.Rand) Capped {
	p := Capped{Alpha: 0.01 + rng.Float64()*0.1, Delta: 0.2 + rng.Float64(), MinStep: 1e-12}
	if rng.Intn(2) == 0 {
		p.MinStep = max(p.MinStep, rng.Float64()*0.02)
	}
	return p
}

// withProcs sets GOMAXPROCS for the test's duration: 1 pins the driver's
// serial sweep, 2 or more its worker fan-out, whatever the runner has.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPartitionedMatchesMergedDifferential is the lane driver's
// determinism contract: over randomized regional markets — multiple
// connected components, random Capped steps, scalar and vector
// limits, converging and non-converging clocks — the
// production run's results are bit-identical to ReferenceRun's merged
// single clock, on the serial sweep and on the fan-out (GOMAXPROCS raised
// so a 1-CPU runner exercises, and races, it too). Exact float equality
// on every Result field, including per-round history, is the assertion.
func TestPartitionedMatchesMergedDifferential(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			decomposed, mixed := 0, 0
			for seed := int64(0); seed < 120; seed++ {
				registry, bids, cfg := regionalCase(rand.New(rand.NewSource(9000 + seed)))
				clock := mustMatchReference(t, fmt.Sprintf("seed %d", seed), registry, bids, cfg).Clock
				if clock.Lanes > 1 {
					decomposed++
				}
				if clock.Held > 0 && clock.Held < clock.Lanes {
					mixed++
				}
			}
			// The generator must actually exercise the decomposition,
			// not just whole-market lanes, and hold a lane that ran out
			// next to lanes that cleared.
			if decomposed < 60 || mixed == 0 {
				t.Fatalf("of 120 seeds, %d decomposed into multiple components and %d mixed held and cleared lanes", decomposed, mixed)
			}
		})
	}
}

// regionalCase draws one case of the differential above — a regional
// market and a random Capped step — from rng;
// FuzzClockMatchesReference draws its cases the same way.
func regionalCase(rng *rand.Rand) (*resource.Registry, []*Bid, Config) {
	registry, bids := randomRegionalMarket(rng, rng.Intn(5)+2)
	start := make(resource.Vector, registry.Len())
	for i := range start {
		start[i] = rng.Float64() * 2
	}
	return registry, bids, Config{
		Start:         start,
		Policy:        randomPartitionPolicy(rng),
		MaxRounds:     300,
		RecordHistory: true,
	}
}

// TestPartitionComponents pins the union-find construction itself.
func TestPartitionComponents(t *testing.T) {
	pool := func(i int) resource.Pool {
		return resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
	}
	registry := resource.NewRegistry(pool(0), pool(1), pool(2), pool(3))
	bundle := func(idx int, q float64) resource.Vector {
		v := make(resource.Vector, registry.Len())
		v[idx] = q
		return v
	}
	cfg := Config{
		Start:     resource.Vector{1, 1, 1, 1},
		Policy:    Capped{Alpha: 0.1, Delta: 0.5, MinStep: 0.01},
		MaxRounds: 5000,
	}

	t.Run("DisjointRegions", func(t *testing.T) {
		bids := []*Bid{
			{User: "b0", Limit: 50, Bundles: []resource.Vector{bundle(0, 5)}},
			{User: "b1", Limit: 50, Bundles: []resource.Vector{bundle(1, 5)}},
			{User: "b2", Limit: 50, Bundles: []resource.Vector{bundle(2, 5)}},
		}
		if got := mustMatchReference(t, "disjoint", registry, bids, cfg).Clock.Lanes; got != 3 {
			t.Fatalf("Components = %d, want 3", got)
		}
	})

	t.Run("SingleGiantComponent", func(t *testing.T) {
		// Every bid shares pool 0, so the graph is one component and the
		// market runs as one whole lane.
		var bids []*Bid
		for i := 0; i < 4; i++ {
			v := make(resource.Vector, registry.Len())
			v[0] = 1
			v[i] = 2
			bids = append(bids, &Bid{User: fmt.Sprintf("b%d", i), Limit: 80, Bundles: []resource.Vector{v}})
		}
		if got := mustMatchReference(t, "giant", registry, bids, cfg).Clock.Lanes; got != 1 {
			t.Fatalf("Components = %d, want 1", got)
		}
	})

	t.Run("XORBundleBridges", func(t *testing.T) {
		// The bridge bid demands pool 1 XOR pool 2: whichever bundle
		// wins, its proxy reads both prices, so the two otherwise
		// disjoint regions must merge into one component — leaving pools
		// {0} and {1,2,3} as the two components.
		bids := []*Bid{
			{User: "solo", Limit: 50, Bundles: []resource.Vector{bundle(0, 5)}},
			{User: "bridge", Limit: 50, Bundles: []resource.Vector{bundle(1, 5), bundle(2, 5)}},
			{User: "b2", Limit: 50, Bundles: []resource.Vector{bundle(2, 5)}},
			{User: "b3", Limit: 50, Bundles: []resource.Vector{bundle(3, 5)}},
			{User: "bridge23", Limit: 50, Bundles: []resource.Vector{bundle(2, 1), bundle(3, 1)}},
		}
		if got := mustMatchReference(t, "bridge", registry, bids, cfg).Clock.Lanes; got != 2 {
			t.Fatalf("Components = %d, want 2", got)
		}
	})

	t.Run("EmptyBookRejected", func(t *testing.T) {
		// An empty book never reaches the lane builder: NewAuction
		// rejects it, so there is no zero-lane state.
		if _, err := NewAuction(registry, nil, cfg); err == nil {
			t.Error("empty book accepted")
		}
	})

	t.Run("NegativeZeroReserveStaysWhole", func(t *testing.T) {
		// The clock normalizes a −0 reserve price to +0 the first time
		// it adds a zero step; only a lane covering every pool, touched
		// or not, reproduces that sign bit.
		bids := []*Bid{
			{User: "b0", Limit: 50, Bundles: []resource.Vector{bundle(0, 5)}},
			{User: "b1", Limit: 50, Bundles: []resource.Vector{bundle(1, 5)}},
		}
		negZero := cfg
		negZero.Start = resource.Vector{1, 1, 1, math.Copysign(0, -1)}
		negZero.RecordHistory = true
		if got := mustMatchReference(t, "-0", registry, bids, negZero).Clock.Lanes; got != 1 {
			t.Fatalf("Components = %d with a −0 reserve price, want 1", got)
		}
		// −0 == +0 under mustEqualResults' comparison; check the bit.
		got, _ := productionRun(registry, bids, negZero)
		ref, _ := ReferenceRun(registry, bids, negZero)
		if math.Signbit(got.Prices[3]) != math.Signbit(ref.Prices[3]) {
			t.Fatalf("untouched −0 pool settled at %v, reference %v", got.Prices[3], ref.Prices[3])
		}
	})
}

// TestPartitionedReEntryMidClock pins the re-entry path inside a lane: a
// priced-out seller re-enters and re-dirties its component mid-clock
// while an unrelated component clears instantly, and the outcome — drop
// rounds included — matches the reference.
func TestPartitionedReEntryMidClock(t *testing.T) {
	registry := resource.NewRegistry(
		resource.Pool{Cluster: "hot", Dim: resource.CPU},
		resource.Pool{Cluster: "idle", Dim: resource.CPU},
	)
	bids := []*Bid{
		// Wants at least 50 for 10 units: priced out below 5/unit,
		// re-enters once the clock lifts the pool.
		{User: "seller", Limit: -50, Bundles: []resource.Vector{{-10, 0}}},
		{User: "buyer", Limit: 1000, Bundles: []resource.Vector{{10, 0}}},
		// The second component clears in round 0.
		{User: "idle-op", Limit: -0.000001, Bundles: []resource.Vector{{0, -5}}},
	}
	cfg := Config{
		Start:         resource.Vector{1, 1},
		Policy:        Capped{Alpha: 0.5, Delta: 1, MinStep: 0.1},
		RecordHistory: true,
	}
	if got := mustMatchReference(t, "re-entry", registry, bids, cfg).Clock.Lanes; got != 2 {
		t.Fatalf("Components = %d, want 2", got)
	}
	on, err := productionRun(registry, bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.DropRound[0] != -1 {
		t.Errorf("re-entered seller DropRound = %d, want -1", on.DropRound[0])
	}
	if !on.IsWinner(0) {
		t.Error("re-entered seller lost")
	}
}

// TestPartitionedSteadyStateAllocationFree extends the zero-allocation
// contract to a multi-lane auction (see mustAllocateOnlyResult).
func TestPartitionedSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	registry, bids := randomRegionalMarket(rng, 4)
	start := make(resource.Vector, registry.Len())
	for i := range start {
		start[i] = 0.5
	}
	a, err := NewAuction(registry, bids, Config{Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if a.Components() < 2 {
		t.Fatalf("market did not decompose: %d components", a.Components())
	}
	mustAllocateOnlyResult(t, registry, bids, start)
}

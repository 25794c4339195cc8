package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"clustermarket/internal/resource"
)

// randomMixedMarket builds a random market over reg mixing pure buyers,
// pure sellers, and traders, with both scalar and vector (per-bundle)
// limits — the full input space the production clock must match the
// reference over.
func randomMixedMarket(rng *rand.Rand, reg *resource.Registry) []*Bid {
	n := rng.Intn(40) + 4
	bids := make([]*Bid, 0, n)
	for u := 0; u < n; u++ {
		nAlt := rng.Intn(3) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		kind := rng.Intn(4) // 0,1: buyer  2: seller  3: trader
		for a := 0; a < nAlt; a++ {
			v := make(resource.Vector, reg.Len())
			for k := 0; k < rng.Intn(3)+1; k++ {
				q := float64(rng.Intn(20) + 1)
				switch {
				case kind == 2:
					q = -q
				case kind == 3 && rng.Intn(2) == 0:
					q = -q
				}
				v[rng.Intn(reg.Len())] = q
			}
			if v.IsZero() {
				v[rng.Intn(reg.Len())] = 1
			}
			bundles = append(bundles, v)
		}
		b := &Bid{User: fmt.Sprintf("u%d", u), Bundles: bundles}
		// Limit signs must respect Validate: a bid that came out a pure
		// seller (all offers) needs nonpositive limits.
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
	return bids
}

// mustEqualResults requires the two clocks' outcomes to be bit-identical
// across every Result field, including per-round history.
func mustEqualResults(t *testing.T, tag string, ref, got *Result) {
	t.Helper()
	if ref.Converged != got.Converged || ref.Rounds != got.Rounds {
		t.Fatalf("%s: converged/rounds = %v/%d vs %v/%d",
			tag, ref.Converged, ref.Rounds, got.Converged, got.Rounds)
	}
	exact := func(name string, a, b resource.Vector) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %v vs %v", tag, name, i, a[i], b[i])
			}
		}
	}
	exact("prices", ref.Prices, got.Prices)
	exactInts := func(name string, a, b []int) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d vs %d", tag, name, i, a[i], b[i])
			}
		}
	}
	exactInts("chosenBundle", ref.ChosenBundle, got.ChosenBundle)
	exactInts("dropRound", ref.DropRound, got.DropRound)
	for i := range ref.Payments {
		if ref.Payments[i] != got.Payments[i] {
			t.Fatalf("%s: payment[%d] = %v vs %v", tag, i, ref.Payments[i], got.Payments[i])
		}
		dx, ix := ref.Allocation(i), got.Allocation(i)
		if (dx == nil) != (ix == nil) {
			t.Fatalf("%s: allocation[%d] nil mismatch", tag, i)
		}
		if dx != nil {
			exact(fmt.Sprintf("allocation[%d]", i), dx, ix)
		}
	}
	if len(ref.History) != len(got.History) {
		t.Fatalf("%s: history length %d vs %d", tag, len(ref.History), len(got.History))
	}
	for r := range ref.History {
		dh, ih := ref.History[r], got.History[r]
		if dh.T != ih.T || dh.ActiveBidders != ih.ActiveBidders {
			t.Fatalf("%s: round %d T/active = %d/%d vs %d/%d",
				tag, r, dh.T, dh.ActiveBidders, ih.T, ih.ActiveBidders)
		}
		exact(fmt.Sprintf("history[%d].prices", r), dh.Prices, ih.Prices)
		exact(fmt.Sprintf("history[%d].z", r), dh.ExcessDemand, ih.ExcessDemand)
	}
}

// mustMatchReference runs one market through the production clock and
// through ReferenceRun and requires bit-identical outcomes: every Result
// field, error presence and error text. Held, which ReferenceRun leaves
// empty, is checked lane by lane: a lane's bids are held exactly when
// ReferenceRun on that lane's bids alone runs out of rounds. It returns
// the production Result.
func mustMatchReference(t *testing.T, tag string, reg *resource.Registry, bids []*Bid, cfg Config) *Result {
	t.Helper()
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	got, gotErr := a.Run()
	ref, refErr := ReferenceRun(reg, bids, cfg)
	if (refErr == nil) != (gotErr == nil) || gotErr != nil && gotErr.Error() != refErr.Error() {
		t.Fatalf("%s: errors differ: reference=%v production=%v", tag, refErr, gotErr)
	}
	mustEqualResults(t, tag, ref, got)
	held := map[int]bool{}
	for _, i := range got.Held {
		held[i] = true
	}
	for _, c := range a.laneList() {
		var own []*Bid
		for _, i := range c.bids {
			own = append(own, bids[i])
		}
		_, err := ReferenceRun(reg, own, cfg)
		for _, i := range c.bids {
			if held[int(i)] != errors.Is(err, ErrNoConvergence) {
				t.Fatalf("%s: bid %d held=%v, its lane alone: %v", tag, i, held[int(i)], err)
			}
		}
	}
	if !sort.IntsAreSorted(got.Held) || len(held) != len(got.Held) {
		t.Fatalf("%s: Held %v is not ascending and distinct", tag, got.Held)
	}
	if (got.Clock.Held == 0) != got.Converged {
		t.Fatalf("%s: %d lanes held, converged %v", tag, got.Clock.Held, got.Converged)
	}
	return got
}

// TestIncrementalMatchesDenseDifferential is the determinism contract of
// the production round loop: over randomized registries and markets of
// buyers, sellers, and traders (scalar and vector limits, converging and
// non-converging clocks), its results are bit-identical to the dense
// ReferenceRun — same prices, same allocations and payments, same
// winners and drop rounds, same per-round history. The reduction order
// is fixed, so exact float equality is the assertion, not a tolerance.
func TestIncrementalMatchesDenseDifferential(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		reg, bids, cfg := mixedCase(rand.New(rand.NewSource(seed)))
		mustMatchReference(t, fmt.Sprintf("seed %d", seed), reg, bids, cfg)
	}
}

// mixedCase draws one case of the differential above — registry, mixed
// market and clock configuration — from rng; FuzzClockMatchesReference
// draws its cases the same way.
func mixedCase(rng *rand.Rand) (*resource.Registry, []*Bid, Config) {
	pools := make([]resource.Pool, rng.Intn(7)+2)
	for i := range pools {
		pools[i] = resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
	}
	reg := resource.NewRegistry(pools...)
	bids := randomMixedMarket(rng, reg)
	start := make(resource.Vector, reg.Len())
	for i := range start {
		start[i] = rng.Float64() * 2
	}
	return reg, bids, Config{
		Start: start,
		Policy: Capped{
			Alpha:   0.01 + rng.Float64()*0.1,
			Delta:   0.2 + rng.Float64(),
			MinStep: 0.005,
		},
		MaxRounds:     300,
		RecordHistory: true,
	}
}

// TestDropRoundClearedOnReEntry pins the re-entry fix: a seller priced
// out at the reserve prices (its receipts are below its limit) re-enters
// once the clock lifts its pool high enough, so its drop round must be
// cleared — the old behavior froze the first drop round forever and
// contradicted History.ActiveBidders.
func TestDropRoundClearedOnReEntry(t *testing.T) {
	reg := resource.NewRegistry(resource.Pool{Cluster: "r1", Dim: resource.CPU})
	bids := []*Bid{
		// Wants at least 50 for 10 units: priced out below 5/unit.
		{User: "seller", Limit: -50, Bundles: []resource.Vector{{-10}}},
		{User: "buyer", Limit: 1000, Bundles: []resource.Vector{{10}}},
	}
	for _, clk := range clocks {
		res, err := clk.run(reg, bids, Config{
			Start:         resource.Vector{1},
			Policy:        Capped{Alpha: 0.5, Delta: 1, MinStep: 0.1},
			RecordHistory: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", clk.name, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", clk.name)
		}
		if !res.IsWinner(0) || !res.IsWinner(1) {
			t.Fatalf("%v: chosen bundles = %v", clk.name, res.ChosenBundle)
		}
		// The seller was inactive in round 0 (one active bidder) and
		// active at the end — DropRound must agree with the history.
		if res.History[0].ActiveBidders != 1 {
			t.Fatalf("%v: round 0 active = %d, want 1", clk.name, res.History[0].ActiveBidders)
		}
		if last := res.History[len(res.History)-1].ActiveBidders; last != 2 {
			t.Fatalf("%v: final active = %d, want 2", clk.name, last)
		}
		if res.DropRound[0] != -1 {
			t.Errorf("%v: re-entered seller DropRound = %d, want -1", clk.name, res.DropRound[0])
		}
		if res.DropRound[1] != -1 {
			t.Errorf("%v: always-active buyer DropRound = %d, want -1", clk.name, res.DropRound[1])
		}
	}
}

// TestPureBuyerRetirementIsFinal checks the round loop's retirement
// rule at the Result level: a priced-out pure buyer never reappears (its
// drop round sticks).
func TestPureBuyerRetirementIsFinal(t *testing.T) {
	reg := resource.NewRegistry(resource.Pool{Cluster: "r1", Dim: resource.CPU})
	bids := []*Bid{
		{User: "op", Limit: -0.01, Bundles: []resource.Vector{{-10}}},
		{User: "poor", Limit: 25, Bundles: []resource.Vector{{10}}},
		{User: "rich", Limit: 400, Bundles: []resource.Vector{{10}}},
	}
	a, err := NewAuction(reg, bids, Config{
		Start:         resource.Vector{1},
		Policy:        Capped{Alpha: 0.05, Delta: 0.2, MinStep: 0.05},
		RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IsWinner(1) {
		t.Error("poor buyer won")
	}
	drop := res.DropRound[1]
	if drop < 0 {
		t.Fatal("poor buyer has no drop round")
	}
	// After its drop round, the active-bidder counts never include it
	// again: retirement is permanent.
	for _, h := range res.History[drop:] {
		if h.ActiveBidders > 2 {
			t.Fatalf("round %d active = %d after buyer dropped", h.T, h.ActiveBidders)
		}
	}
}

// TestRerunMatchesFirstRun pins that an Auction is re-runnable: its
// cached lanes reset their scratch, so running it again — with and
// without history — yields a fresh Result bit-identical to the first.
func TestRerunMatchesFirstRun(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pools := make([]resource.Pool, rng.Intn(5)+2)
		for i := range pools {
			pools[i] = resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
		}
		reg := resource.NewRegistry(pools...)
		bids := randomMixedMarket(rng, reg)
		start := make(resource.Vector, reg.Len())
		for i := range start {
			start[i] = rng.Float64() * 2
		}
		a, err := NewAuction(reg, bids, Config{
			Start:         start,
			Policy:        Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
			MaxRounds:     300,
			RecordHistory: seed%2 == 0,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		first, firstErr := a.Run()
		if first == nil {
			t.Fatalf("seed %d: nil result (%v)", seed, firstErr)
		}
		// Twice: the second pass runs on fully warmed scratch.
		for pass := 0; pass < 2; pass++ {
			again, againErr := a.Run()
			if (firstErr == nil) != (againErr == nil) {
				t.Fatalf("seed %d: errors differ: %v vs %v", seed, firstErr, againErr)
			}
			mustEqualResults(t, fmt.Sprintf("seed %d pass %d", seed, pass), first, again)
		}
	}
}

// resultAllocs is what one run allocates besides its rounds: the Result
// and its four slices (prices, payments, chosen bundles, drop rounds).
const resultAllocs = 5

// mustAllocateOnlyResult pins the zero-allocation contract of the round
// loop on one market: with history off, a re-run of an auction whose
// lanes are built allocates its Result and nothing that grows with the
// rounds — the same count under the tests' coarse step and under one ten
// times finer, which clocks many times more rounds. testing.AllocsPerRun
// pins GOMAXPROCS to 1 while it measures, so it is the driver's serial
// sweep that is counted; the fan-out taken at GOMAXPROCS ≥ 2 spawns its
// workers per run, the one marketlint:allow in sweep.
func mustAllocateOnlyResult(t *testing.T, reg *resource.Registry, bids []*Bid, start resource.Vector) {
	t.Helper()
	var rounds [2]int
	var allocs [2]float64
	for i, policy := range []Capped{
		{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
		{Alpha: 0.005, Delta: 0.05, MinStep: 0.001},
	} {
		a, err := NewAuction(reg, bids, Config{Start: start, Policy: policy, MaxRounds: 5000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run() // builds the lanes
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = res.Rounds
		allocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := a.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if rounds[1] < 4*rounds[0] {
		t.Fatalf("the fine step clocked %d rounds, the coarse %d: too few to tell", rounds[1], rounds[0])
	}
	t.Logf("%.0f and %.0f allocs a run over %d and %d rounds", allocs[0], allocs[1], rounds[0], rounds[1])
	if allocs[0] != allocs[1] || allocs[0] > resultAllocs {
		t.Errorf("%.1f allocs a run over %d rounds, %.1f over %d: want the same, at most %d",
			allocs[0], rounds[0], allocs[1], rounds[1], resultAllocs)
	}
}

// TestHeldRunAllocatesHeldOnce: a re-run that holds a lane allocates its
// Result and one list of the held bids, however many there are, sized to
// them and not to the whole book.
func TestHeldRunAllocatesHeldOnce(t *testing.T) {
	reg := cpuRegistry(2)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-1, 0}}},
		{User: "op2", Limit: -0.000001, Bundles: []resource.Vector{{0, -5}}},
		{User: "z", Limit: 50, Bundles: []resource.Vector{{0, 3}}},
	}
	for i := 0; i < 40; i++ {
		bids = append(bids, &Bid{User: fmt.Sprintf("x%d", i), Limit: 1e6, Bundles: []resource.Vector{{1, 0}}})
	}
	a, err := NewAuction(reg, bids, Config{Start: resource.Vector{1, 1}, Policy: Capped{Alpha: 0.25, Delta: 0.5, MinStep: 0.25}, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if !errors.Is(err, ErrNoConvergence) || len(res.Held) != 41 || cap(res.Held) != 41 {
		t.Fatalf("Run: %v, %d held of room for %d; want ErrNoConvergence and the op's lane of 41 held, sized to them", err, len(res.Held), cap(res.Held))
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Run() }); allocs != resultAllocs+1 {
		t.Errorf("a held run allocates %.1f objects, want %d: the Result and one Held list", allocs, resultAllocs+1)
	}
}

// TestSteadyStateRoundsAllocationFree pins that a round of a one-lane
// market allocates nothing (see mustAllocateOnlyResult).
func TestSteadyStateRoundsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "c0", Dim: resource.CPU},
		resource.Pool{Cluster: "c1", Dim: resource.CPU},
		resource.Pool{Cluster: "c2", Dim: resource.CPU},
	)
	mustAllocateOnlyResult(t, reg, randomMixedMarket(rng, reg), resource.Vector{0.5, 0.5, 0.5})
}

package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"clustermarket/internal/resource"
)

// cpuRegistry is n one-dimensional pools c0..c(n-1).
func cpuRegistry(n int) *resource.Registry {
	pools := make([]resource.Pool, n)
	for i := range pools {
		pools[i] = resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
	}
	return resource.NewRegistry(pools...)
}

// booked returns a booked bid (rows only, no Bundles) of one bundle per
// argument, each a list of (pool, quantity) pairs.
func booked(user string, limit float64, width int, bundles ...[]float64) *Bid {
	var ends []int
	var pools []int32
	var qty []float64
	for _, pq := range bundles {
		for i := 0; i < len(pq); i += 2 {
			pools, qty = append(pools, int32(pq[i])), append(qty, pq[i+1])
		}
		ends = append(ends, len(pools))
	}
	b := &Bid{User: user, Limit: limit}
	b.PackSparse(width, ends, pools, qty)
	return b
}

// TestKernelEdgeCases holds the lane kernel to the oracle on the inputs
// its index, its cached costs and its shrinking live lists could get
// wrong, and every case to the recycling contract: re-running the auction
// into the same Result (live lists and retirements reset) changes nothing,
// the work counters included.
func TestKernelEdgeCases(t *testing.T) {
	vec := func(n int, pq ...float64) resource.Vector {
		v := make(resource.Vector, n)
		for i := 0; i < len(pq); i += 2 {
			v[int(pq[i])] = pq[i+1]
		}
		return v
	}
	ask := -0.000001
	capped := Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}
	bookedOrders := func() []*Bid {
		return []*Bid{
			booked("t1", 40, 4, []float64{0, 2, 1, 2}, []float64{1, 3}),
			booked("t2", 25, 4, []float64{0, 4}),
			booked("t3", 70, 4, []float64{2, 5, 3, 1}, []float64{3, 6}),
			booked("t4", 12, 4, []float64{2, 5}),
		}
	}
	cases := []struct {
		name  string
		pools int
		bids  []*Bid
		cfg   Config
		lanes int
		check func(t *testing.T, res *Result)
	}{
		{
			// Both of "xor"'s bundles sit on pool 0: a rebuild adds only
			// the chosen one.
			name: "TwoBundlesOnOnePool", pools: 2, lanes: 2,
			bids: []*Bid{
				{User: "op", Limit: ask, Bundles: []resource.Vector{vec(2, 0, -10)}},
				{User: "xor", BundleLimits: []float64{40, 70}, Bundles: []resource.Vector{vec(2, 0, 4), vec(2, 0, 8)}},
				{User: "big", Limit: 60, Bundles: []resource.Vector{vec(2, 0, 6)}},
				{User: "small", Limit: 9, Bundles: []resource.Vector{vec(2, 0, 3)}},
				{User: "other-op", Limit: ask, Bundles: []resource.Vector{vec(2, 1, -5)}},
				{User: "other", Limit: 50, Bundles: []resource.Vector{vec(2, 1, 5)}},
			},
			cfg: Config{Start: resource.Vector{1, 1}, Policy: capped, RecordHistory: true},
			check: func(t *testing.T, res *Result) {
				// It opens on the larger bundle and is pushed to the smaller.
				if res.ChosenBundle[1] != 0 {
					t.Errorf("the two-bundle bid settled bundle %d, want 0", res.ChosenBundle[1])
				}
			},
		},
		{
			// Pool 1 has no supply until the trader (buys 1 of pool 0,
			// sells 10 of pool 1, wants 60 net) is lifted over its limit,
			// which takes a price that retires poor1 and poor2 on the way.
			// It is priced out at round 0 and must still be listed when it
			// comes back; its drop round is cleared.
			name: "TraderReEntersAfterPoolMatesRetire", pools: 3, lanes: 2,
			bids: []*Bid{
				{User: "op", Limit: ask, Bundles: []resource.Vector{vec(3, 0, -10)}},
				{User: "trader", Limit: -60, Bundles: []resource.Vector{vec(3, 0, 1, 1, -10)}},
				{User: "poor1", Limit: 20, Bundles: []resource.Vector{vec(3, 1, 10)}},
				{User: "poor2", Limit: 30, Bundles: []resource.Vector{vec(3, 1, 10)}},
				{User: "rich", Limit: 1000, Bundles: []resource.Vector{vec(3, 1, 10)}},
				{User: "idle-op", Limit: ask, Bundles: []resource.Vector{vec(3, 2, -5)}},
			},
			cfg: Config{Start: resource.Vector{1, 1, 1}, Policy: capped, RecordHistory: true},
			check: func(t *testing.T, res *Result) {
				if !res.IsWinner(1) || res.DropRound[1] != -1 {
					t.Errorf("trader: winner=%v drop=%d, want a winner with the drop round cleared", res.IsWinner(1), res.DropRound[1])
				}
				if res.History[0].ActiveBidders != 5 {
					t.Errorf("round 0 active = %d, want 5 (trader priced out)", res.History[0].ActiveBidders)
				}
				if res.DropRound[2] <= 0 || res.DropRound[3] <= res.DropRound[2] {
					t.Errorf("poor buyers dropped at %d, %d; want 0 < poor1 < poor2", res.DropRound[2], res.DropRound[3])
				}
			},
		},
		{
			name: "BuyerRetiredAtRoundZero", pools: 1, lanes: 1,
			bids: []*Bid{
				{User: "op", Limit: ask, Bundles: []resource.Vector{{-10}}},
				{User: "broke", Limit: 0.5, Bundles: []resource.Vector{{10}}},
				{User: "a", Limit: 100, Bundles: []resource.Vector{{8}}},
				{User: "b", Limit: 30, Bundles: []resource.Vector{{8}}},
			},
			cfg: Config{Start: resource.Vector{1}, Policy: capped, RecordHistory: true},
			check: func(t *testing.T, res *Result) {
				if res.DropRound[1] != 0 || res.IsWinner(1) {
					t.Errorf("broke buyer: drop=%d winner=%v, want dropped at round 0", res.DropRound[1], res.IsWinner(1))
				}
			},
		},
		{
			// Pool 0 has buyers and no seller: every one of them retires,
			// the lane clears with nobody listed, and pool 1's lane runs
			// on well past that while pool 0's price holds still — the
			// property that lets each lane stop at its own cleared round.
			name: "EveryBuyerOfALaneRetires", pools: 2, lanes: 2,
			bids: []*Bid{
				{User: "x", Limit: 15, Bundles: []resource.Vector{vec(2, 0, 10)}},
				{User: "y", Limit: 25, Bundles: []resource.Vector{vec(2, 0, 10)}},
				{User: "op", Limit: ask, Bundles: []resource.Vector{vec(2, 1, -10)}},
				{User: "p", Limit: 400, Bundles: []resource.Vector{vec(2, 1, 10)}},
				{User: "q", Limit: 300, Bundles: []resource.Vector{vec(2, 1, 10)}},
			},
			cfg: Config{Start: resource.Vector{1, 1}, Policy: capped, RecordHistory: true},
			check: func(t *testing.T, res *Result) {
				if res.IsWinner(0) || res.IsWinner(1) || res.DropRound[1] >= res.Rounds-1 {
					t.Errorf("pool 0's buyers: chosen bundles %v, last drop %d of %d rounds", res.ChosenBundle, res.DropRound[1], res.Rounds)
				}
				cleared := 0
				for cleared < len(res.History) && res.History[cleared].ExcessDemand[0] > 0 {
					cleared++
				}
				if cleared >= res.Rounds-1 {
					t.Fatalf("pool 0's lane cleared at round %d of %d, want before the last", cleared, res.Rounds)
				}
				for _, r := range res.History[cleared:] {
					if r.Prices[0] != res.History[cleared].Prices[0] {
						t.Fatalf("pool 0's price moved to %v at round %d after its lane cleared at round %d at %v",
							r.Prices[0], r.T, cleared, res.History[cleared].Prices[0])
					}
				}
			},
		},
		{
			// The benchmark's replay: booked orders, and operator supply
			// still carrying Bundles (packed privately by NewAuction).
			name: "UnbookedSellersAmongBookedOrders", pools: 4, lanes: 2,
			bids: append(bookedOrders(),
				&Bid{User: "op", Limit: ask, Bundles: []resource.Vector{vec(4, 0, -4, 1, -4)}},
				&Bid{User: "op", Limit: ask, Bundles: []resource.Vector{vec(4, 2, -5, 3, -5)}}),
			cfg: Config{Start: resource.Vector{1, 2, 1, 2}, Policy: capped},
			check: func(t *testing.T, res *Result) {
				// The same market with the sellers booked settles the same.
				bids := append(bookedOrders(),
					booked("op", ask, 4, []float64{0, -4, 1, -4}),
					booked("op", ask, 4, []float64{2, -5, 3, -5}))
				all, err := productionRun(cpuRegistry(4), bids, Config{Start: resource.Vector{1, 2, 1, 2}, Policy: capped})
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, "booked sellers", all, res)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := cpuRegistry(tc.pools)
			if got := mustMatchReference(t, tc.name, reg, tc.bids, tc.cfg).Clock.Lanes; got != tc.lanes {
				t.Fatalf("Components = %d, want %d", got, tc.lanes)
			}
			a, err := NewAuction(reg, tc.bids, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := a.Run()
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, first)
			if c := first.Clock; c.Lanes != tc.lanes || c.LaneRounds < first.Rounds {
				t.Errorf("clock counters %+v for %d lanes, %d rounds", c, tc.lanes, first.Rounds)
			}
			again, err := a.Run()
			for pass := 0; pass < 2; pass++ {
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, fmt.Sprintf("re-run %d", pass), first, again)
				if again.Clock != first.Clock {
					t.Errorf("re-run %d did different work: %+v, first %+v", pass, again.Clock, first.Clock)
				}
				again, err = a.Run()
			}
		})
	}
}

// TestKernelListsOwnersAndBuyers pins the kernel's proxy columns: each
// bundle's owner, proxy-major, and which proxies are pure buyers.
func TestKernelListsOwnersAndBuyers(t *testing.T) {
	reg := cpuRegistry(2)
	a, err := NewAuction(reg, []*Bid{
		{User: "a", Limit: 9, Bundles: []resource.Vector{{4, 0}, {8, 1}}},
		{User: "b", Limit: 9, Bundles: []resource.Vector{{0, 2}}},
		{User: "c", Limit: -1, Bundles: []resource.Vector{{-3, -5}}},
	}, Config{Start: resource.Vector{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	lanes := a.laneList()
	if len(lanes) != 1 {
		t.Fatalf("%d lanes, want 1", len(lanes))
	}
	c := lanes[0]
	if !reflect.DeepEqual(c.buyer, []bool{true, true, false}) || !reflect.DeepEqual(c.owner, []int32{0, 0, 1, 2}) {
		t.Errorf("buyer = %v, owner = %v", c.buyer, c.owner)
	}
}

// TestEpochWrapClearsMarks: past 1<<30 rounds of reuse, reset restarts a
// lane's epoch clock and clears every shape's and proxy's mark. A run
// leaves marks 1, 2, ... on what it priced and listed; the rerun counts
// its epochs from 1 again, so a mark left standing would read as "done
// this round" and skip the shape or the owner. On twenty of
// oneBundleCase's markets, both runs must match the reference.
func TestEpochWrapClearsMarks(t *testing.T) {
	for seed := int64(-1); seed >= -20; seed-- {
		reg, bids, cfg := oneBundleCase(rand.New(rand.NewSource(seed)))
		tag := fmt.Sprintf("seed %d", seed)
		first := mustMatchReference(t, tag, reg, bids, cfg)
		a, err := NewAuction(reg, bids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Run()
		for _, c := range a.laneList() {
			c.epoch = 1<<30 + 1
		}
		again, _ := a.Run()
		mustEqualResults(t, tag+" after the wrap", first, again)
		for _, c := range a.laneList() {
			if c.epoch > int32(again.Rounds) {
				t.Fatalf("%s: epoch %d after a %d-round rerun: the clock did not restart", tag, c.epoch, again.Rounds)
			}
		}
	}
}

// TestClockCountersShowTheReductions reads the fast paths off the
// counters on a regional market with a long tail: the lanes re-price and
// re-score well under what scoring every bundle and proxy every round —
// the reference's work — comes to, and the counters are consistent with
// each other: a lane's round 0 builds z, and every later round either
// rebuilt it or re-used the last step. Limit order, quiet rounds and
// demand classes remove visits, not outcomes: the switches and rebuilds
// are the ones counted before any of them (7 058 and 1 093). A class
// re-scores its members once, so the re-choices fall more than tenfold
// below the 58 083 counted before classes (81 505 before limit order),
// a re-score switches more proxies than one (Switched > Rechosen, which
// no scan of one proxy can do), and Dropped counts a priced-out member
// once, not once a bundle (1 080 before classes).
func TestClockCountersShowTheReductions(t *testing.T) {
	reg, bids, cfg := budgetMarket(600)
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Clock
	// A lane takes at most one dot a round past 0 for each shape. Priced
	// may pass Repriced: a shape whose live entries are all one-bundle
	// classes within their limits is priced and re-scores none of them.
	dots := 0
	for _, l := range a.lanes {
		dots += (l.stats.LaneRounds - 1) * len(l.cost)
	}
	if c.Lanes != 8 || c.LaneRounds < res.Rounds || c.Rebuilds == 0 || c.Rebuilds+c.Reused+c.Lanes != c.LaneRounds ||
		c.Rechosen > c.Repriced || c.Priced == 0 || c.Priced > dots {
		t.Fatalf("implausible counters %+v for %d rounds", c, res.Rounds)
	}
	if c.Switched != 7058 || c.Dropped != 538 || c.Rebuilds != 1093 {
		t.Errorf("switched %d, dropped %d, rebuilt %d; want 7058, 538, 1093", c.Switched, c.Dropped, c.Rebuilds)
	}
	if c.Reused == 0 || c.Repriced >= 128880 || c.Rechosen*10 > 58083 || c.Switched <= c.Rechosen {
		t.Errorf("%d rounds re-used their step, %d re-pricings, %d re-scores for %d switches: a shortcut did not engage",
			c.Reused, c.Repriced, c.Rechosen, c.Switched)
	}
	bundles := 0
	for _, b := range bids {
		bundles += b.NumBundles()
	}
	perLane := c.LaneRounds / c.Lanes
	if c.Rechosen*3 > 2*len(bids)*perLane || c.Repriced*3 > 2*bundles*perLane {
		t.Errorf("re-priced %d bundles and re-scored %d classes over %d lane-rounds; everything every round is %d and %d",
			c.Repriced, c.Rechosen, c.LaneRounds, bundles*perLane, len(bids)*perLane)
	}
}

// budgetMarket is an 8-region market of n booked bids: three pools a
// region, one seller a region, buyers with one to three single-pool
// bundles inside their region and spread-out limits.
func budgetMarket(n int) (*resource.Registry, []*Bid, Config) {
	const regions, width = 8, 24
	reg := cpuRegistry(width)
	bids := make([]*Bid, 0, n)
	for i := 0; len(bids) < n; i++ {
		base := float64(3 * (i % regions))
		if i < regions {
			bids = append(bids, booked("op", -0.000001, width, []float64{base, -6, base + 1, -6, base + 2, -6}))
			continue
		}
		var bundles [][]float64
		for k := 0; k <= i%3; k++ {
			bundles = append(bundles, []float64{base + float64((i/regions+k)%3), float64(1 + i%4)})
		}
		bids = append(bids, booked(fmt.Sprintf("u%d", i), float64(5+(i*37)%190), width, bundles...))
	}
	start := make(resource.Vector, width)
	for i := range start {
		start[i] = 1
	}
	return reg, bids, Config{Start: start, Policy: Capped{Alpha: 0.02, Delta: 1, MinStep: 0.25}}
}

// TestClockBuildAllocBudget gates what building and first running the
// clock allocates: a fixed number of objects for a fixed lane structure —
// the same at 500 and at 4 000 booked bids, so nothing is per bid — and,
// in the lanes, slabs the collector never has to scan.
func TestClockBuildAllocBudget(t *testing.T) {
	// A collection that starts mid-run allocates for itself; keep the
	// count the program's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{500, 4000} {
		reg, bids, cfg := budgetMarket(n)
		var res *Result
		counts = append(counts, testing.AllocsPerRun(3, func() {
			a, err := NewAuction(reg, bids, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = a.Run(); err != nil {
				t.Fatal(err)
			}
			if a.Components() != 8 {
				t.Fatalf("%d components, want 8", a.Components())
			}
		}))
		won := 0
		for i := range bids {
			if res.IsWinner(i) {
				won++
			}
		}
		if won < 8 {
			t.Fatalf("n = %d: %d winners; want a clock with real winners", n, won)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("NewAuction + Run allocates %.0f objects at 500 bids and %.0f at 4000, want the same", counts[0], counts[1])
	}
	if perLane := counts[0] / 8; perLane > 11 {
		t.Errorf("%.0f allocations for 8 lanes (%.1f a lane)", counts[0], perLane)
	}

	// Every slab of a lane but its recorded history holds plain numbers.
	var scan func(typ reflect.Type)
	scan = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case f.Type.Kind() == reflect.Struct:
				scan(f.Type)
			case f.Type.Kind() != reflect.Slice || f.Name == "hist":
			default:
				switch f.Type.Elem().Kind() {
				case reflect.Int32, reflect.Float64, reflect.Bool:
				default:
					t.Errorf("lane slab %s holds %s: the collector would scan it", f.Name, f.Type.Elem())
				}
			}
		}
	}
	scan(reflect.TypeOf(lane{}))
}

// TestProxyChooseIsPure pins that the clock's demand oracle, the scan
// ReferenceRun calls for every bid every round, leaves the bid and its
// views as they were: the same prices give the same choice every round.
func TestProxyChooseIsPure(t *testing.T) {
	b := &Bid{User: "u", Limit: 10, Bundles: []resource.Vector{{1, 0}, {0, 1}}}
	b.Pack()
	views := b.rows.appendBundles(nil)
	before := *b
	before.rows.idx, before.rows.val = slices.Clone(b.rows.idx), slices.Clone(b.rows.val)
	for _, p := range []resource.Vector{{5, 2}, {50, 20}, {5, 2}} {
		want := 1
		if p[0] == 50 {
			want = -1
		}
		if got := b.bestAffordable(views, p); got != want {
			t.Fatalf("bestAffordable(%v) = %d, want %d", p, got, want)
		}
	}
	if !reflect.DeepEqual(*b, before) || !reflect.DeepEqual(views, before.rows.appendBundles(nil)) {
		t.Fatalf("the scan changed the bid: %+v, was %+v", *b, before)
	}
}

// fuzzSource feeds a generator the fuzzer's bytes, eight a draw, and then
// carries on from a seeded generator, so an empty input is that seed's
// fixed market and every mutation bends it.
type fuzzSource struct {
	data []byte
	rest rand.Source
}

func (s *fuzzSource) Seed(int64) {}

func (s *fuzzSource) Int63() int64 {
	if len(s.data) < 8 {
		return s.rest.Int63()
	}
	v := binary.LittleEndian.Uint64(s.data)
	s.data = s.data[8:]
	return int64(v >> 1)
}

// FuzzClockMatchesReference is the four differentials with the fuzzer
// choosing the market: the production clock and ReferenceRun must agree
// bit for bit on every Result field and on the error, over buyers,
// sellers and traders, one to four bundles a bid, scalar and vector
// limits, bundles that repeat another's rows and random Capped steps. A
// negative seed draws a catalog-shaped market, or with regional set a
// oneBundleCase market, and a seed from tieSeeds on a tieCase market. The
// corpus starts from the 4 × 120 seeds the differential tests pin and
// the tie test's, in testdata/fuzz.
func FuzzClockMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 120; seed++ {
		f.Add(seed, false, []byte{})
		f.Add(9000+seed, true, []byte{})
		f.Add(-1-seed, false, []byte{})
		f.Add(-1-seed, true, []byte{})
	}
	f.Fuzz(func(t *testing.T, seed int64, regional bool, shape []byte) {
		rng := rand.New(&fuzzSource{data: shape, rest: rand.NewSource(seed)})
		draw := mixedCase
		switch {
		case seed >= tieSeeds:
			draw = tieCase
		case seed < 0 && regional:
			draw = oneBundleCase
		case seed < 0:
			draw = catalogCase
		case regional:
			draw = regionalCase
		}
		reg, bids, cfg := draw(rng)
		// The generators stop at three bundles; give some bids a fourth, on
		// the pools of their first, so a pool lists two bundles of one bid.
		for _, b := range bids {
			if len(b.Bundles) == 3 && rng.Intn(2) == 0 {
				b.Bundles = append(b.Bundles, b.Bundles[0].Scale(2))
				if len(b.BundleLimits) > 0 {
					b.BundleLimits = append(b.BundleLimits, b.BundleLimits[0]*1.5)
				}
			}
		}
		mustMatchReference(t, fmt.Sprintf("seed %d regional %v shape %x", seed, regional, shape), reg, bids, cfg)
	})
}

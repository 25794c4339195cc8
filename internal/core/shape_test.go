package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"clustermarket/internal/resource"
)

// catalogCase draws a catalog-shaped market from rng, the way the
// exchange books SubmitProduct orders: each buyer wants one product of a
// three-item catalog, one to three times over, on an XOR of one to three
// clusters of one region, so that many bundles repeat another bundle's
// rows exactly. With them: an operator per region offering every pool,
// and a second operator with the first one's rows; two traders with
// identical rows who buy CPU and sell RAM; and one buyer whose two
// identical bundles carry different BundleLimits, so that the clock
// drops one while the bid stays live. Bid order is shuffled.
func catalogCase(rng *rand.Rand) (*resource.Registry, []*Bid, Config) {
	regions, per := rng.Intn(3)+1, rng.Intn(3)+1
	var pools []resource.Pool
	for r := 0; r < regions; r++ {
		for c := 0; c < per; c++ {
			cl := fmt.Sprintf("r%dc%d", r, c)
			pools = append(pools, resource.Pool{Cluster: cl, Dim: resource.CPU}, resource.Pool{Cluster: cl, Dim: resource.RAM})
		}
	}
	reg := resource.NewRegistry(pools...)
	cpu := func(r, c int) int { return 2 * (r*per + c) } // its RAM pool follows
	catalog := [][2]float64{{1, 4}, {2, 2}, {0.5, 8}}
	product := func(at int, p [2]float64, q float64) resource.Vector {
		v := reg.Zero()
		v[at], v[at+1] = p[0]*q, p[1]*q
		return v
	}
	var bids []*Bid
	for u, n := 0, rng.Intn(50)+5; u < n; u++ {
		r, first, k := rng.Intn(regions), rng.Intn(per), rng.Intn(per)+1
		p, q := catalog[rng.Intn(len(catalog))], float64(rng.Intn(3)+1)
		b := &Bid{User: fmt.Sprintf("u%d", u)}
		for j := 0; j < k; j++ {
			b.Bundles = append(b.Bundles, product(cpu(r, (first+j)%per), p, q))
		}
		if rng.Intn(3) == 0 {
			for range b.Bundles {
				b.BundleLimits = append(b.BundleLimits, float64(rng.Intn(120)+5))
			}
		} else {
			b.Limit = float64(rng.Intn(120) + 5)
		}
		bids = append(bids, b)
	}
	twin, lim := product(cpu(0, 0), catalog[0], 1), float64(rng.Intn(60)+20)
	bids = append(bids, &Bid{User: "twin", Bundles: []resource.Vector{twin, twin.Clone()}, BundleLimits: []float64{lim, lim / 3}})
	trade := reg.Zero()
	trade[cpu(0, 0)], trade[cpu(0, per-1)+1] = 1, -4
	for i := 0; i < 2; i++ {
		bids = append(bids, &Bid{User: fmt.Sprintf("trader%d", i), Limit: -float64(rng.Intn(40) + 1), Bundles: []resource.Vector{trade.Clone()}})
	}
	for r := 0; r < regions; r++ {
		v := reg.Zero()
		for c := 0; c < per; c++ {
			v[cpu(r, c)], v[cpu(r, c)+1] = -float64(4+rng.Intn(8)), -float64(8+rng.Intn(16))
		}
		bids = append(bids, &Bid{User: fmt.Sprintf("op%d", r), Limit: -float64(rng.Intn(10)), Bundles: []resource.Vector{v}})
		if r == 0 {
			bids = append(bids, &Bid{User: "op0b", Limit: -float64(rng.Intn(30)), Bundles: []resource.Vector{v.Clone()}})
		}
	}
	rng.Shuffle(len(bids), func(i, j int) { bids[i], bids[j] = bids[j], bids[i] })
	start := reg.Zero()
	for i := range start {
		start[i] = rng.Float64() * 2
	}
	return reg, bids, Config{
		Start:         start,
		Policy:        Capped{Alpha: 0.01 + rng.Float64()*0.1, Delta: 0.2 + rng.Float64(), MinStep: 0.005},
		MaxRounds:     300,
		RecordHistory: true,
	}
}

// TestCatalogMatchesReference is the differential on catalog-shaped
// markets, where most bundles share their rows with another and many
// bids repeat another: the clock prices each moved shape once, drops the
// pure buyers' entries priced over their limits and re-scores each
// demand class once for its members, and still agrees with ReferenceRun
// bit for bit. The generator must engage all three: one dot must serve
// several entries, and the re-scores must fall under the 89 645 proxies
// these seeds re-chose one by one before classes (113 466 with classes
// off). The seeds are negative, as the ones FuzzClockMatchesReference
// draws catalog markets for.
func TestCatalogMatchesReference(t *testing.T) {
	var sum ClockStats
	for seed := int64(-1); seed >= -120; seed-- {
		reg, bids, cfg := catalogCase(rand.New(rand.NewSource(seed)))
		sum.Add(mustMatchReference(t, fmt.Sprintf("seed %d", seed), reg, bids, cfg).Clock)
	}
	if sum.Dropped == 0 || sum.Priced >= sum.Repriced || sum.Rechosen >= 89645 {
		t.Fatalf("shapes or classes barely engaged over 120 catalog markets: %+v", sum)
	}
}

// TestShapeRowsOneULPApart pins what a shape is: bundles whose rows are
// bit-identical. Two rows on the same pools whose quantities differ in
// the last bit are two shapes, each priced over its own rows: the cost
// of every shape with a live member is each member's own dot at the
// final prices, and within the limit of every one-bundle buyer still in
// its class's limit order. The seller's bundle, whose rows no other
// bundle has, is a shape of one, numbered first as its first bundle.
func TestShapeRowsOneULPApart(t *testing.T) {
	reg := cpuRegistry(2)
	near := math.Nextafter(3, 4)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-10, -20}}},
		{User: "a", Limit: 400, Bundles: []resource.Vector{{1, 3}}},
		{User: "b", Limit: 300, Bundles: []resource.Vector{{1, 3}}},
		{User: "c", Limit: 350, Bundles: []resource.Vector{{1, near}}},
		{User: "d", Limit: 250, Bundles: []resource.Vector{{1, near}}},
		{User: "e", Limit: 200, Bundles: []resource.Vector{{1, 3}, {1, near}}},
	}
	cfg := Config{Start: resource.Vector{1, 1}, Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}, RecordHistory: true}
	mustMatchReference(t, "ulp", reg, bids, cfg)
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	c := a.laneList()[0]
	if got := [][]int32{c.shape[:1], c.shape[1:3], c.shape[3:5], c.shape[5:7]}; !slices.Equal(got[0], []int32{0}) ||
		!slices.Equal(got[1], []int32{1, 1}) || !slices.Equal(got[2], []int32{2, 2}) || !slices.Equal(got[3], []int32{1, 2}) {
		t.Fatalf("shapes of op | a, b | c, d | e's two = %v, want [0] [1 1] [2 2] [1 2]", got)
	}
	if len(c.cost) != 3 {
		t.Fatalf("%d cost slots, want one a shape", len(c.cost))
	}
	for b, s := range c.shape {
		if own := c.price(int32(b)); !emptied(c.rec(s)) && c.cost[s] != own {
			t.Errorf("bundle %d's shape %d caches cost %v, its own rows price it at %v", b, s, c.cost[s], own)
		}
	}
	kept := 0
	for cl := range c.classes {
		cr := c.crec(cl)
		for _, k := range c.members[cr[cOrd]:cr[cHi]] {
			if c.retired[k] {
				continue
			}
			kept++
			if b := c.first[k]; c.cost[c.shape[b]] > c.lim[b] {
				t.Errorf("proxy %d is live in limit order at cost %v over its limit %v", k, c.cost[c.shape[b]], c.lim[b])
			}
		}
	}
	if kept == 0 {
		t.Error("no one-bundle buyer is left in limit order")
	}
}

// TestEmptyShapeLeavesWalkLists: when every bundle a shape lists has been
// dropped, the shape leaves the walk lists of its pools, so a pool that
// keeps moving stops visiting it. Here three poor buyers with one row
// set drop out early while a rich buyer keeps pool 0 climbing; all are
// one-bundle buyers, so each of the buyers' two shapes lists one class.
// The seller's bundle is shape 0, which empties too: the seller, chosen
// at round 0, leaves it at the first re-price.
func TestEmptyShapeLeavesWalkLists(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-10}}},
		{User: "p1", Limit: 10, Bundles: []resource.Vector{{4}}},
		{User: "p2", Limit: 12, Bundles: []resource.Vector{{4}}},
		{User: "p3", Limit: 14, Bundles: []resource.Vector{{4}}},
		{User: "rich", Limit: 900, Bundles: []resource.Vector{{9}}},
		{User: "rival", Limit: 500, Bundles: []resource.Vector{{9}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}, RecordHistory: true}
	res := mustMatchReference(t, "empty shape", reg, bids, cfg)
	if res.Clock.Dropped != 4 || !res.IsWinner(4) {
		t.Fatalf("dropped %d bundles, rich won %v; want the three poor buyers' and the rival's dropped", res.Clock.Dropped, res.IsWinner(4))
	}
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	c := a.laneList()[0]
	if len(c.cost) != 3 || !emptied(c.rec(0)) || !emptied(c.rec(1)) || emptied(c.rec(2)) {
		t.Fatalf("shape records %v: want three, the first two emptied", c.recs)
	}
	if list := c.walk[c.walkAt[0]:c.walkEnd[0]]; !slices.Equal(list, []int32{2}) {
		t.Errorf("pool 0's walk list %v, want [2]: the emptied shapes left it", list)
	}
}

// TestSellerAndTraderMembersNeverDropped: a seller's or trader's cost
// falls as prices rise, so a shape member of theirs priced over its limit
// may come back. Two sellers share rows and are priced out at the
// reserve price, as are two traders who share rows; all four must stay
// in their shapes and re-enter as the price climbs.
func TestSellerAndTraderMembersNeverDropped(t *testing.T) {
	reg := cpuRegistry(2)
	bids := []*Bid{
		{User: "s1", Limit: -50, Bundles: []resource.Vector{{-10, 0}}},
		{User: "s2", Limit: -60, Bundles: []resource.Vector{{-10, 0}}},
		{User: "t1", Limit: -30, Bundles: []resource.Vector{{0.5, -10}}},
		{User: "t2", Limit: -40, Bundles: []resource.Vector{{0.5, -10}}},
		{User: "b1", Limit: 2000, Bundles: []resource.Vector{{9, 0}}},
		{User: "b2", Limit: 1500, Bundles: []resource.Vector{{9, 0}}},
		{User: "b3", Limit: 2000, Bundles: []resource.Vector{{0, 18}}},
	}
	cfg := Config{Start: resource.Vector{1, 1}, Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}, RecordHistory: true}
	res := mustMatchReference(t, "sellers and traders", reg, bids, cfg)
	for i := 0; i < 4; i++ {
		if !res.IsWinner(i) || res.DropRound[i] != -1 {
			t.Errorf("%s: winner %v, drop round %d; want it back in and winning", bids[i].User, res.IsWinner(i), res.DropRound[i])
		}
	}
	if res.Clock.Dropped != 0 {
		t.Errorf("dropped %d bundles; no pure buyer shares rows here", res.Clock.Dropped)
	}
}

// TestTwinBundleDroppedBidStaysLive: a bid with two identical bundles at
// different limits is one shape with two members. The clock drops the
// cheaper-limit member once the price passes it, and the bid stays live
// and wins on the other.
func TestTwinBundleDroppedBidStaysLive(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-10}}},
		{User: "twin", BundleLimits: []float64{300, 40}, Bundles: []resource.Vector{{6}, {6}}},
		{User: "rival", Limit: 200, Bundles: []resource.Vector{{6}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}, RecordHistory: true}
	res := mustMatchReference(t, "twin", reg, bids, cfg)
	if res.Clock.Dropped < 1 || !res.IsWinner(1) || res.ChosenBundle[1] != 0 {
		t.Fatalf("dropped %d, twin winner %v on bundle %d; want a drop and the twin winning on bundle 0",
			res.Clock.Dropped, res.IsWinner(1), res.ChosenBundle[1])
	}
}

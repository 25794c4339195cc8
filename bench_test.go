package clustermarket_test

// Layer benchmarks: the stages of an order's life that the end-to-end
// suite in benchmark/ does not time on their own — the production clock
// against its dense oracle core.ReferenceRun on bundles that share no
// rows and on catalog bids that mostly do, the clock's scaling in
// users and pools (Section III.C.4), admission at R = 192 and contended
// admission at R = 39, the auction build from a booked book, what the
// book retains an order, and the federated tick with its settlement wave.
// The paper figures are regenerated by `marketsim figures` and their shapes
// asserted by internal/scenario's paper-pilot tests. Run with:
//
//	make bench
//
// (one pass, -benchtime 1x). Each benchmark fails on a wrong shape —
// the wrong component count, a book that does not drain — so that pass
// doubles as a smoke check.

import (
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/telemetry"
)

// sparsePlanetMarket builds the sparse-planet workload: `pools`
// single-dimension pools and `users` pure buyers whose bundles each
// touch only a handful of pools. The planet has the paper's hot/cold
// shape: a broad background of modest bidders spread across every pool
// (it clears within the first few dozen rounds), plus a small cohort of
// deep-pocketed contenders fighting over four hot pools, whose price war
// drives a long clock tail during which only those pools move. Most
// bidders' choices provably cannot change in a tail round — exactly
// what the incremental engine exploits. The operator offers half of the
// aggregate first-choice demand, so the clock genuinely rations
// everywhere.
func sparsePlanetMarket(seed int64, users, pools int) (*resource.Registry, []*core.Bid) {
	rng := rand.New(rand.NewSource(seed))
	reg := resource.NewRegistry()
	for i := 0; i < pools; i++ {
		reg.Add(resource.Pool{Cluster: "sp" + strconv.Itoa(i), Dim: resource.CPU})
	}
	const hotPools = 4
	contenders := users / 32
	supply := reg.Zero()
	bids := make([]*core.Bid, 0, users+1)
	for u := 0; u < users-contenders; u++ {
		nAlt := rng.Intn(2) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		for a := 0; a < nAlt; a++ {
			v := reg.Zero()
			for k := 0; k < rng.Intn(3)+2; k++ {
				v[rng.Intn(pools)] = float64(rng.Intn(16) + 1)
			}
			bundles = append(bundles, v)
		}
		bids = append(bids, &core.Bid{
			User:    "u" + strconv.Itoa(u),
			Bundles: bundles,
			Limit:   float64(rng.Intn(400) + 25),
		})
	}
	for c := 0; c < contenders; c++ {
		v := reg.Zero()
		v[rng.Intn(hotPools)] = float64(rng.Intn(8) + 8)
		bids = append(bids, &core.Bid{
			User:    "hot" + strconv.Itoa(c),
			Bundles: []resource.Vector{v},
			Limit:   float64(rng.Intn(4000) + 2000),
		})
	}
	for _, b := range bids {
		supply.AddInto(b.Bundles[0])
	}
	for i := range supply {
		supply[i] = -supply[i] / 2
	}
	bids = append(bids, &core.Bid{User: "op", Limit: -0.001, Bundles: []resource.Vector{supply}})
	return reg, bids
}

// benchClockVsReference times one market on the production clock — a
// prebuilt auction re-run, so after the warm-up that builds its lanes
// allocs/op reads the fresh Result's 7 on the serial sweep (the fan-out
// taken with ≥ 2 lanes at -cpu ≥ 2 spawns its workers per run) — and on
// core.ReferenceRun, which validates and builds its auction inside every
// call. The two run the identical number of rounds by construction, so
// ns/round is the comparison metric.
func benchClockVsReference(b *testing.B, reg *resource.Registry, bids []*core.Bid, wantLanes int) {
	cfg := planetConfig(reg)
	report := func(b *testing.B, rounds, lanes int) {
		b.StopTimer()
		b.ReportMetric(float64(rounds), "rounds")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds*b.N), "ns/round")
		b.ReportMetric(float64(lanes), "components")
	}
	b.Run("production", func(b *testing.B) {
		b.ReportAllocs()
		a, err := core.NewAuction(reg, bids, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if a.Components() != wantLanes {
			b.Fatalf("decomposed into %d components, want %d", a.Components(), wantLanes)
		}
		res, err := a.Run() // warm-up: the lanes' scratch is sized here
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = a.Run(); err != nil {
				b.Fatal(err)
			}
		}
		report(b, res.Rounds, wantLanes)
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		var res *core.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = core.ReferenceRun(reg, bids, cfg); err != nil {
				b.Fatal(err)
			}
		}
		report(b, res.Rounds, 1)
	})
}

// planetConfig is the clock of the *PlanetEngines books: every pool's
// reserve price at 0.5 and a 5% step.
func planetConfig(reg *resource.Registry) core.Config {
	start := reg.Zero()
	for i := range start {
		start[i] = 0.5
	}
	return core.Config{Start: start, Policy: core.Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01}}
}

// BenchmarkSparsePlanetEngines is the per-round cost of the production
// clock's incremental demand revelation vs the dense reference on the
// sparse-planet workload (256 pools × 2048 bidders, a handful of
// non-zero components each, one connected component). Results are
// bit-identical (TestIncrementalMatchesDenseDifferential).
func BenchmarkSparsePlanetEngines(b *testing.B) {
	reg, bids := sparsePlanetMarket(9, 2048, 256)
	benchClockVsReference(b, reg, bids, 1)
}

// syntheticMarket builds a random pure-buyer market over nPools
// single-dimension pools: each buyer wants 1–20 units of one pool, XOR
// over 1–3 alternatives, and one operator offers half of the first-choice
// demand.
func syntheticMarket(rng *rand.Rand, nUsers, nPools int) (*resource.Registry, []*core.Bid) {
	reg := resource.NewRegistry()
	for i := 0; i < nPools; i++ {
		reg.Add(resource.Pool{Cluster: "c" + strconv.Itoa(i), Dim: resource.CPU})
	}
	supply := reg.Zero()
	bids := make([]*core.Bid, 0, nUsers+1)
	for u := 0; u < nUsers; u++ {
		nAlt := rng.Intn(3) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		for a := 0; a < nAlt; a++ {
			v := reg.Zero()
			v[rng.Intn(nPools)] = float64(rng.Intn(20) + 1)
			bundles = append(bundles, v)
		}
		bids = append(bids, &core.Bid{
			User:    "u" + strconv.Itoa(u),
			Bundles: bundles,
			Limit:   float64(rng.Intn(150) + 25),
		})
	}
	for _, b := range bids {
		supply.AddInto(b.Bundles[0])
	}
	for i := range supply {
		supply[i] = -supply[i] / 2
	}
	bids = append(bids, &core.Bid{User: "op", Limit: -0.001, Bundles: []resource.Vector{supply}})
	return reg, bids
}

func TestSyntheticMarketShape(t *testing.T) {
	reg, bids := syntheticMarket(rand.New(rand.NewSource(1)), 50, 20)
	if reg.Len() != 20 {
		t.Errorf("registry = %d pools", reg.Len())
	}
	if len(bids) != 51 {
		t.Fatalf("bids = %d", len(bids))
	}
	for _, b := range bids[:50] {
		if err := b.Validate(reg.Len()); err != nil {
			t.Errorf("invalid bid: %v", err)
		}
	}
	if bids[50].Bundles[0].PureDirection() != -1 {
		t.Error("operator bid is not a pure offer")
	}
}

// scalingRounds fixes every scaling point's clock length: buyer limits
// are unbounded, so demand never clears and each point runs exactly this
// many rounds. The paper's linearity claim is about the work of one round
// (one proxy sweep over U users × R pools), not the clock's length.
const scalingRounds = 500

// BenchmarkClockScaling is Section III.C.4's claim that the clock's
// running time grows linearly in users and in pools: the user sweep at
// 100 pools and the pool sweep at 100 users, which share their
// 100 × 100 point. Each point reports ns/op
// and ns/round, the rounds run and the lane rounds, bundle re-pricings,
// dot products, dropped bundles and proxy re-choices of core.ClockStats.
func BenchmarkClockScaling(b *testing.B) {
	for _, pt := range scalingPoints {
		b.Run(scalingName(pt), func(b *testing.B) {
			reg, bids, cfg := scalingBook(pt)
			a, err := core.NewAuction(reg, bids, cfg)
			if err != nil {
				b.Fatal(err)
			}
			a.Components() // builds the lanes, so the loop times only the clock
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = a.Run(); !errors.Is(err, core.ErrNoConvergence) {
					b.Fatalf("clock stopped early (%v): the point must run %d rounds", err, scalingRounds)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(res.Rounds*b.N), "ns/round")
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Clock.LaneRounds), "lane-rounds")
			b.ReportMetric(float64(res.Clock.Repriced), "repriced")
			b.ReportMetric(float64(res.Clock.Priced), "priced")
			b.ReportMetric(float64(res.Clock.Dropped), "dropped")
			b.ReportMetric(float64(res.Clock.Rechosen), "rechosen")
		})
	}
}

// scalingPoints are BenchmarkClockScaling's users × pools: the user
// sweep at 100 pools and the pool sweep at 100 users.
var scalingPoints = [][2]int{
	{25, 100}, {50, 100}, {100, 100}, {200, 100}, {400, 100}, {800, 100},
	{100, 12}, {100, 25}, {100, 50}, {100, 200}, {100, 384},
}

func scalingName(pt [2]int) string {
	return "users=" + strconv.Itoa(pt[0]) + "/pools=" + strconv.Itoa(pt[1])
}

// scalingBook builds the scaling point of pt[0] users over pt[1] pools:
// syntheticMarket at seed 11 with unbounded buyer limits, on the planet
// clock for scalingRounds rounds.
func scalingBook(pt [2]int) (*resource.Registry, []*core.Bid, core.Config) {
	reg, bids := syntheticMarket(rand.New(rand.NewSource(11)), pt[0], pt[1])
	for _, bid := range bids {
		if bid.Class() == core.PureBuyer {
			bid.Limit = 1e15
		}
	}
	cfg := planetConfig(reg)
	cfg.MaxRounds = scalingRounds
	return reg, bids, cfg
}

// sparseRegionalPlanetMarket is the sparse-planet workload sharded into
// k independent sub-markets: the pools split into k contiguous regions,
// every buyer's bundles stay inside one region, and the operator offers
// per-region supply — so the bidder–pool graph has exactly k connected
// components, each with its own hot-pool price war. This is the
// decomposition-friendly topology BenchmarkPartitionedPlanetEngines
// measures.
func sparseRegionalPlanetMarket(seed int64, users, pools, k int) (*resource.Registry, []*core.Bid) {
	rng := rand.New(rand.NewSource(seed))
	reg := resource.NewRegistry()
	for i := 0; i < pools; i++ {
		reg.Add(resource.Pool{Cluster: "sp" + strconv.Itoa(i), Dim: resource.CPU})
	}
	const hotPools = 4
	per := pools / k
	contenders := users / 32
	supply := reg.Zero()
	bids := make([]*core.Bid, 0, users+k)
	for u := 0; u < users-contenders; u++ {
		base := rng.Intn(k) * per
		nAlt := rng.Intn(2) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		for a := 0; a < nAlt; a++ {
			v := reg.Zero()
			for j := 0; j < rng.Intn(3)+2; j++ {
				v[base+rng.Intn(per)] = float64(rng.Intn(16) + 1)
			}
			bundles = append(bundles, v)
		}
		bids = append(bids, &core.Bid{
			User:    "u" + strconv.Itoa(u),
			Bundles: bundles,
			Limit:   float64(rng.Intn(400) + 25),
		})
	}
	for c := 0; c < contenders; c++ {
		v := reg.Zero()
		v[rng.Intn(k)*per+rng.Intn(hotPools)] = float64(rng.Intn(8) + 8)
		bids = append(bids, &core.Bid{
			User:    "hot" + strconv.Itoa(c),
			Bundles: []resource.Vector{v},
			Limit:   float64(rng.Intn(4000) + 2000),
		})
	}
	for _, b := range bids {
		supply.AddInto(b.Bundles[0])
	}
	for r := 0; r < k; r++ {
		v := reg.Zero()
		offered := false
		for i := r * per; i < (r+1)*per; i++ {
			if supply[i] > 0 {
				v[i] = -supply[i] / 2
				offered = true
			}
		}
		if offered {
			bids = append(bids, &core.Bid{User: "op" + strconv.Itoa(r), Limit: -0.001, Bundles: []resource.Vector{v}})
		}
	}
	return reg, bids
}

// BenchmarkPartitionedPlanetEngines is the sparse-planet workload with k
// independent hot components, cleared as k lanes by the production clock
// vs as one merged market by the reference. Results are bit-identical
// (TestPartitionedMatchesMergedDifferential); the win on top of
// incremental revelation is wall-clock: a lane stops when *it* freezes,
// so cold components exit after a few dozen rounds instead of being
// dragged through every hot component's full price-war tail, and at
// -cpu ≥ 2 the k tails overlap on the driver's fan-out.
func BenchmarkPartitionedPlanetEngines(b *testing.B) {
	const kComponents = 8
	reg, bids := sparseRegionalPlanetMarket(9, 2048, 256, kComponents)
	benchClockVsReference(b, reg, bids, kComponents)
}

// TestFirehoseNoSubscriberAllocationFree is the firehose's hot-path
// guard: an exchange with a firehose attached but no subscriber must
// submit orders with exactly the same number of heap allocations as an
// exchange with no firehose at all. Publish with zero subscribers is a
// nil check plus one atomic load — no event materialization, no
// payload boxing.
func TestFirehoseNoSubscriberAllocationFree(t *testing.T) {
	build := func(fire *telemetry.Firehose) *market.Exchange {
		f := cluster.NewFleet()
		c := cluster.New("r1", nil)
		c.AddMachines(50, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12, Telemetry: fire})
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.OpenAccount("bt0"); err != nil {
			t.Fatal(err)
		}
		return ex
	}
	measure := func(ex *market.Exchange) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := ex.SubmitProduct("bt0", "batch-compute", 1, []string{"r1"}, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := measure(build(nil))
	wired := measure(build(telemetry.NewFirehose()))
	if wired != bare {
		t.Fatalf("submit with unwatched firehose allocates %.1f/op, without %.1f/op — the no-subscriber path must be allocation-free", wired, bare)
	}
}

// The wide planet of the two layer benchmarks below: 8 regions × 8
// one-machine clusters, R = 192 pools, while an order names 1–3 clusters
// of one region — nine non-zero components at most. It is the
// benchmark/ suite's clock-sparse shape, where every per-order O(R)
// pass is twenty times the order's real size.
const (
	wideRegions  = 8
	wideClusters = 8
	wideBook     = 4096
)

// wideCluster names cluster c of region r on the wide planet.
func wideCluster(r, c int) string { return "w" + strconv.Itoa(r) + "c" + strconv.Itoa(c) }

func wideExchange(tb testing.TB) *market.Exchange {
	tb.Helper()
	f := cluster.NewFleet()
	for r := 0; r < wideRegions; r++ {
		for c := 0; c < wideClusters; c++ {
			cl := cluster.New(wideCluster(r, c), nil)
			cl.AddMachines(1, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := f.AddCluster(cl); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ex.OpenAccount("wide"); err != nil {
		tb.Fatal(err)
	}
	return ex
}

// wideOrders pre-draws a book's worth of order shapes so the timed loop
// submits and does nothing else.
func wideOrders() (clusters [][]string, limits []float64) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < wideBook; i++ {
		region, first := rng.Intn(wideRegions), rng.Intn(wideClusters)
		cs := make([]string, 1+rng.Intn(3))
		for j := range cs {
			cs[j] = wideCluster(region, (first+j)%wideClusters)
		}
		clusters = append(clusters, cs)
		limits = append(limits, float64(5+rng.Intn(60)))
	}
	return clusters, limits
}

// BenchmarkSubmitProductWide is the admission layer of an order's life
// at R = 192: catalog lookup, bundle build, pack, validate, budget
// check, book insert. The book is replaced (untimed) every 4096 orders
// so memory stays flat at any -benchtime.
func BenchmarkSubmitProductWide(b *testing.B) {
	b.ReportAllocs()
	clusters, limits := wideOrders()
	var ex *market.Exchange
	for i := 0; i < b.N; i++ {
		k := i % wideBook
		if k == 0 {
			b.StopTimer()
			ex = wideExchange(b)
			b.StartTimer()
		}
		if _, err := ex.SubmitProduct("wide", "batch-compute", 1, clusters[k], limits[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitProductParallel is contended admission: GOMAXPROCS
// goroutines submit at once to one exchange at R = 39 — 13 clusters of
// three machines, the end-to-end suite's planet — for 16 funded teams, so
// that submits meet on the account and order stripes as the web tier's
// do. Each order names a window of four of the clusters. Each goroutine
// puts a fresh exchange on the same fleet in place every 4096 of its own
// orders, so memory stays flat at any -benchtime; building it is timed,
// and costs a few microseconds against 4096 submits.
func BenchmarkSubmitProductParallel(b *testing.B) {
	const teams, clusters = 16, 13
	f := cluster.NewFleet()
	names := make([]string, clusters)
	for c := range names {
		names[c] = "p" + strconv.Itoa(c)
		cl := cluster.New(names[c], nil)
		cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(cl); err != nil {
			b.Fatal(err)
		}
	}
	windows := make([][]string, clusters)
	for c := range windows {
		for j := 0; j < 4; j++ {
			windows[c] = append(windows[c], names[(c+j)%clusters])
		}
	}
	team := make([]string, teams)
	for i := range team {
		team[i] = "team" + strconv.Itoa(i)
	}
	book := func() (*market.Exchange, error) {
		ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
		for i := 0; err == nil && i < teams; i++ {
			err = ex.OpenAccount(team[i])
		}
		return ex, err
	}
	var cur atomic.Pointer[market.Exchange]
	ex, err := book()
	if err != nil {
		b.Fatal(err)
	}
	if r := ex.Registry().Len(); r != 3*clusters {
		b.Fatalf("R = %d, want %d", r, 3*clusters)
	}
	cur.Store(ex)
	var workers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(workers.Add(1))
		for k := w * 7; pb.Next(); k++ {
			if (k-w*7+1)%wideBook == 0 {
				ex, err := book()
				if err != nil {
					b.Error(err)
					return
				}
				cur.Store(ex)
			}
			if _, err := cur.Load().SubmitProduct(team[k%teams], "batch-compute", 1, windows[k%clusters], float64(5+k%60)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// wideBids is bookedBids on a fresh wide exchange, whose operator offers
// 64 supply bids at R = 192.
func wideBids(tb testing.TB, clusters [][]string, qty, limits []float64) (*resource.Registry, []*core.Bid, resource.Vector) {
	return bookedBids(tb, wideExchange(tb), "wide", clusters, qty, limits)
}

// bookedBids books, as team on ex, one batch-compute order a k — qty[k]
// workers (one when qty is nil) on an XOR of clusters[k] at limits[k] —
// and returns ex's registry, the booked bids plus one operator supply bid
// a cluster with free capacity (0.8 of it), and ex's reserve prices: an
// epoch's auction input as the exchange assembles it.
func bookedBids(tb testing.TB, ex *market.Exchange, team string, clusters [][]string, qty, limits []float64) (*resource.Registry, []*core.Bid, resource.Vector) {
	for k := range clusters {
		q := 1.0
		if qty != nil {
			q = qty[k]
		}
		if _, err := ex.SubmitProduct(team, "batch-compute", q, clusters[k], limits[k]); err != nil {
			tb.Fatal(err)
		}
	}
	reg := ex.Registry()
	var bids []*core.Bid
	for _, o := range ex.OpenOrders() {
		bids = append(bids, o.Bid)
	}
	free := ex.Fleet().FreeVector(reg)
	for _, cl := range reg.Clusters() {
		var supply resource.Vector
		for _, i := range reg.ClusterPools(cl) {
			if q := free[i] * 0.8; q > 0 {
				if supply == nil {
					supply = reg.Zero()
				}
				supply[i] = -q
			}
		}
		if supply != nil {
			bids = append(bids, &core.Bid{User: market.OperatorAccount, Bundles: []resource.Vector{supply}, Limit: -0.000001})
		}
	}
	start, err := ex.ReservePrices()
	if err != nil {
		tb.Fatal(err)
	}
	return reg, bids, start
}

// BenchmarkCatalogPlanetEngines is the production clock against the
// reference on catalog bids: the wide book's 4096 batch-compute orders,
// one to three clusters of one region each, and the operator's supply,
// as the exchange books them. A lane's bundles are then a few dozen
// distinct row sets, which the clock prices once a round each
// (incremental.go's shapes), where BenchmarkSparsePlanetEngines' bundles
// mostly share no rows and are priced one by one.
func BenchmarkCatalogPlanetEngines(b *testing.B) {
	clusters, limits := wideOrders()
	reg, bids, _ := wideBids(b, clusters, nil, limits)
	benchClockVsReference(b, reg, bids, wideRegions)
}

// BenchmarkNewAuctionFromBook is the stage between the book and round 0
// of the clock: core.NewAuction over 4096 already-booked bids plus the
// operator's 64 supply bids at R = 192 (validate every bid, build the
// proxies), then Components, which forces the sub-market decomposition,
// its pool remap and each lane's shape index.
func BenchmarkNewAuctionFromBook(b *testing.B) {
	b.ReportAllocs()
	clusters, limits := wideOrders()
	reg, bids, start := wideBids(b, clusters, nil, limits)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.NewAuction(reg, bids, core.Config{Start: start})
		if err != nil {
			b.Fatal(err)
		}
		if a.Components() != wideRegions {
			b.Fatalf("decomposed into %d components, want %d", a.Components(), wideRegions)
		}
	}
}

// sparseEpochOrders draws the first epoch of the benchmark/ suite's
// clock-sparse workload at seed 1, draw for draw, on the wide planet: 15
// in 16 orders want 1–4 workers on an XOR of 1–3 clusters of one region
// at a limit of 5..64, and 1 in 16 is a hot contender on its region's
// cluster 0 at 200..599, whose price war keeps that cluster climbing for
// some 1 500 rounds after its region's other clusters cleared. It draws
// n orders; welded, an XOR that runs past its region's last cluster
// goes on into the next region's first, so the regions chain into one
// component.
func sparseEpochOrders(n int, welded bool) (clusters [][]string, qty, limits []float64) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		region := rng.Intn(wideRegions)
		rng.Intn(16) // the workload's team draw
		qty = append(qty, float64(1+rng.Intn(4)))
		if i%16 == 15 {
			clusters = append(clusters, []string{wideCluster(region, 0)})
			limits = append(limits, float64(200+rng.Intn(400)))
			continue
		}
		k, first := 1+rng.Intn(3), rng.Intn(wideClusters)
		cs := make([]string, k)
		for j := range cs {
			r, c := region, first+j
			if welded {
				r = (region + c/wideClusters) % wideRegions
			}
			cs[j] = wideCluster(r, c%wideClusters)
		}
		clusters = append(clusters, cs)
		limits = append(limits, float64(5+rng.Intn(60)))
	}
	return clusters, qty, limits
}

// epochBook books sparseEpochOrders(n, welded) on the wide planet, at
// the exchange's reserve prices: the auction of BenchmarkSparseEpochClock
// and BenchmarkWeldedEpochClock.
func epochBook(tb testing.TB, n int, welded bool) (*resource.Registry, []*core.Bid, core.Config) {
	clusters, qty, limits := sparseEpochOrders(n, welded)
	reg, bids, start := wideBids(tb, clusters, qty, limits)
	return reg, bids, core.Config{Start: start}
}

// BenchmarkSparseEpochClock is the clock layer of a clock-sparse epoch:
// "run" times Auction.Run with the lanes built, reporting ns per
// lane-round and core.ClockStats' counts, and "build" times NewAuction
// plus the lane build (Components). Its book must decompose into the
// eight regions and run at least 1 500 rounds, the long single-cluster
// tails the round loop's quiet-round and limit-order paths are for.
// `make bench-clock` repeats it pinned to one CPU.
func BenchmarkSparseEpochClock(b *testing.B) {
	reg, bids, cfg := epochBook(b, wideBook, false)
	build := func(b *testing.B) *core.Auction {
		a, err := core.NewAuction(reg, bids, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if a.Components() != wideRegions {
			b.Fatalf("decomposed into %d components, want %d", a.Components(), wideRegions)
		}
		return a
	}
	b.Run("run", func(b *testing.B) { benchEpochClock(b, build(b), 1500) })
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build(b)
		}
	})
}

// BenchmarkWeldedEpochClock is BenchmarkSparseEpochClock's "run" on a
// welded book of 4 096 and of 16 384 orders (see sparseEpochOrders): the
// 64 clusters form one lane, so a round that switched a choice rebuilds
// excess demand over the whole book's live proxies, where each of the
// unwelded book's eight regional lanes rebuilds only its own. It is the
// case where that rebuild costs most.
// `make bench-clock` repeats it pinned to one CPU.
func BenchmarkWeldedEpochClock(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		reg, bids, cfg := epochBook(b, n, true)
		b.Run("orders="+strconv.Itoa(n), func(b *testing.B) {
			a, err := core.NewAuction(reg, bids, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if a.Components() != 1 {
				b.Fatalf("decomposed into %d components, want 1", a.Components())
			}
			benchEpochClock(b, a, 1500)
		})
	}
}

// The mem-planet workload's planet (benchmark/world.go): twelve cold
// clusters p1..p12 and a hot one, h1, filled to 0.8, three machines each;
// an epoch is 512 one-worker batch-compute orders, order i on the XOR of
// the four cold clusters from p(i mod 12 + 1) on, at a limit of 5..64.
const (
	planetCold   = 12
	planetOrders = 512
)

// planetBook books the first epoch of mem-planet at seed 1 (team draw,
// then limit draw, an order) at the exchange's reserve prices: the
// auction of BenchmarkPlanetEpochClock. Its windows chain every cold
// cluster into one lane, and h1's supply is a lane of its own.
func planetBook(tb testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
	f := cluster.NewFleet()
	add := func(name string) {
		cl := cluster.New(name, nil)
		cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(cl); err != nil {
			tb.Fatal(err)
		}
	}
	cold := func(i int) string { return "p" + strconv.Itoa(i%planetCold+1) }
	for i := 0; i < planetCold; i++ {
		add(cold(i))
	}
	add("h1")
	if err := f.FillToUtilization(rand.New(rand.NewSource(12)), "h1", cluster.Usage{CPU: 0.8, RAM: 0.8, Disk: 0.8}); err != nil {
		tb.Fatal(err)
	}
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
	if err != nil {
		tb.Fatal(err)
	}
	if err := ex.OpenAccount("planet"); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var clusters [][]string
	var limits []float64
	for i := 0; i < planetOrders; i++ {
		rng.Intn(16) // the workload's team draw
		clusters = append(clusters, []string{cold(i), cold(i + 1), cold(i + 2), cold(i + 3)})
		limits = append(limits, float64(5+rng.Intn(60)))
	}
	reg, bids, start := bookedBids(tb, ex, "planet", clusters, nil, limits)
	return reg, bids, core.Config{Start: start}
}

// BenchmarkPlanetEpochClock is the clock layer of a mem-planet epoch:
// Auction.Run on planetBook's two lanes, built untimed, reporting ns per
// lane-round and core.ClockStats' counts. Its 512 buyers are a dozen
// repeated bids: the twelve windows at any limit.
// `make bench-clock` repeats it pinned to one CPU.
func BenchmarkPlanetEpochClock(b *testing.B) {
	reg, bids, cfg := planetBook(b)
	a, err := core.NewAuction(reg, bids, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if a.Components() != 2 {
		b.Fatalf("decomposed into %d components, want 2", a.Components())
	}
	benchEpochClock(b, a, 100)
}

// benchEpochClock times a's Run with the lanes built, after an untimed
// run that must clock at least minRounds rounds, and reports ns per
// lane-round and core.ClockStats' counts.
func benchEpochClock(b *testing.B, a *core.Auction, minRounds int) {
	b.ReportAllocs()
	res, err := a.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Rounds < minRounds {
		b.Fatalf("%d rounds, want at least %d", res.Rounds, minRounds)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = a.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c := res.Clock
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.LaneRounds*b.N), "ns/lane-round")
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(c.LaneRounds), "lane-rounds")
	b.ReportMetric(float64(c.Repriced), "repriced")
	b.ReportMetric(float64(c.Priced), "priced")
	b.ReportMetric(float64(c.Rechosen), "rechosen")
	b.ReportMetric(float64(c.Switched), "switched")
	b.ReportMetric(float64(c.Dropped), "dropped")
	b.ReportMetric(float64(c.Rebuilds), "rebuilds")
	b.ReportMetric(float64(c.Reused), "reused")
}

// BenchmarkFederationTick is the federated epoch, the layer the
// settlement wave lives in: one federation.Tick over four regions of
// three three-machine clusters, filled to 0.8, 0.5, 0.3 and 0.1, after
// 512 cross-region orders (untimed) — each an XOR over two to four
// regions, limit 5..64 — so that legs lose in hot regions and fail over.
// Legs booked by one tick's wave settle in the next, so the book reaches
// a steady state. It reports failovers/op and fails without any.
func BenchmarkFederationTick(b *testing.B) {
	const regions, clusters, orders, teams = 4, 3, 512, 16
	utils := [regions]float64{0.8, 0.5, 0.3, 0.1}
	rng := rand.New(rand.NewSource(7))
	members := make([]*federation.Region, regions)
	names := make([][]string, regions)
	for r := range members {
		fleet := cluster.NewFleet()
		for c := 0; c < clusters; c++ {
			name := "f" + strconv.Itoa(r) + "c" + strconv.Itoa(c)
			cl := cluster.New(name, nil)
			cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := fleet.AddCluster(cl); err != nil {
				b.Fatal(err)
			}
			u := utils[r]
			if err := fleet.FillToUtilization(rng, name, cluster.Usage{CPU: u, RAM: u, Disk: u}); err != nil {
				b.Fatal(err)
			}
			names[r] = append(names[r], name)
		}
		var err error
		if members[r], err = federation.NewRegion("fr"+strconv.Itoa(r), fleet, market.Config{InitialBudget: 1e12}); err != nil {
			b.Fatal(err)
		}
	}
	fed, err := federation.NewFederation(members...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < teams; i++ {
		if err := fed.OpenAccount("team" + strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	submit := func() {
		for k := 0; k < orders; k++ {
			var cs []string
			for _, r := range rng.Perm(regions)[:2+rng.Intn(regions-1)] {
				cs = append(cs, names[r][rng.Intn(clusters)])
			}
			if _, err := fed.SubmitProduct("team"+strconv.Itoa(k%teams), "batch-compute", 1, cs, float64(5+rng.Intn(60))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		submit()
		b.StartTimer()
		for _, t := range fed.Tick() {
			if t.Err != nil {
				b.Fatalf("region %s: %v", t.Region, t.Err)
			}
		}
	}
	b.StopTimer()
	failovers := fed.Stats().Failovers
	if failovers == 0 {
		b.Fatal("no leg failed over: the wave booked nothing")
	}
	b.ReportMetric(float64(failovers)/float64(b.N), "failovers/op")
}

// BenchmarkBookRetention is what the append-only book keeps of an order:
// heap bytes and heap objects an order, read from HeapAlloc and
// HeapObjects after a full collection, once with 4096 one-to-three
// cluster XOR orders booked and open and once more after an auction has
// settled them and the next epoch's claim has let go of the wave (a
// settled order is a record and its rows in the stripe's archive chunks,
// a winner two ledger records more). The planet has 13 or 64 clusters,
// R = 39 or 192, and the demand is the same on both — it names the first
// 13 clusters only, so the same orders win — which leaves R itself as the
// one difference: an open order is one object holding order and bid plus
// two pointer-free row slabs, a settled one no object at all, whatever R
// is. (The bytes that still differ, 0.6 an order here, are the auction
// record's two price vectors: 16·R bytes an auction, not an order.)
func BenchmarkBookRetention(b *testing.B) {
	for _, clusters := range []int{13, 64} {
		b.Run("R"+strconv.Itoa(3*clusters), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			targets := make([][]string, wideBook)
			for k := range targets {
				first := rng.Intn(13)
				for j := 1 + rng.Intn(3); j > 0; j-- {
					targets[k] = append(targets[k], "k"+strconv.Itoa((first+j)%13))
				}
			}
			var open, settled [2]float64 // bytes, objects an order
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := cluster.NewFleet()
				for c := 0; c < clusters; c++ {
					cl := cluster.New("k"+strconv.Itoa(c), nil)
					cl.AddMachines(1, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
					if err := f.AddCluster(cl); err != nil {
						b.Fatal(err)
					}
				}
				ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
				if err != nil {
					b.Fatal(err)
				}
				if err := ex.OpenAccount("wide"); err != nil {
					b.Fatal(err)
				}
				ex.Registry().Clusters() // builds the registry's lazy per-cluster index: the planet's, not an order's
				base := heapAfterGC()
				b.StartTimer()
				for k, cs := range targets {
					if _, err := ex.SubmitProduct("wide", "batch-compute", 1, cs, float64(5+k%60)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				booked := heapAfterGC()
				if _, _, err := ex.RunAuction(); err != nil {
					b.Fatal(err)
				}
				// The next epoch's claim, which drops the settled wave's
				// objects from the lazily compacted claim list.
				if _, _, err := ex.RunAuction(); !errors.Is(err, market.ErrNoOpenOrders) {
					b.Fatalf("the book should be empty: %v", err)
				}
				archived := heapAfterGC()
				for m := range open {
					open[m] = (booked[m] - base[m]) / wideBook
					settled[m] = (archived[m] - base[m]) / wideBook
				}
				if n := len(ex.OrdersTail(1)); n != 1 { // the book is live until here
					b.Fatal("empty book")
				}
				b.StartTimer()
			}
			b.ReportMetric(open[0], "open-B/order")
			b.ReportMetric(open[1], "open-objects/order")
			b.ReportMetric(settled[0], "settled-B/order")
			b.ReportMetric(settled[1], "settled-objects/order")
		})
	}
}

// heapAfterGC returns the live heap's bytes and object count after a
// full collection.
func heapAfterGC() [2]float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return [2]float64{float64(m.HeapAlloc), float64(m.HeapObjects)}
}

package clustermarket_test

// Benchmark harness: one benchmark per paper table/figure (see the
// experiment index in DESIGN.md) plus ablations over the design choices
// called out there. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks that regenerate figures report shape metrics (price ratios,
// rounds, stranding) via b.ReportMetric alongside the timing, so a bench
// run doubles as a smoke check of the reproduced results.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/optimize"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/sim"
	"clustermarket/internal/telemetry"
)

// benchConfig is a small but structurally faithful world: enough clusters
// for hot/cold skew, enough teams for competition.
func benchConfig(seed int64) sim.Config {
	return sim.Config{
		Seed:               seed,
		Clusters:           8,
		MachinesPerCluster: 10,
		Teams:              30,
	}
}

// BenchmarkFig2ReserveCurves regenerates Figure 2 (FIG2).
func BenchmarkFig2ReserveCurves(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		curves := sim.Fig2(100)
		if len(curves) != 3 {
			b.Fatal("bad curve count")
		}
	}
}

// BenchmarkFig6PriceRatios regenerates Figure 6 (FIG6): world build, one
// market auction, price/fixed-price ratios.
func BenchmarkFig6PriceRatios(b *testing.B) {
	b.ReportAllocs()
	var hot, cold float64
	for i := 0; i < b.N; i++ {
		d, err := sim.Fig6(benchConfig(100 + int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		hot, cold = d.CongestionPriceCorrelation(0.75, 0.4)
	}
	b.ReportMetric(hot, "hotRatio")
	b.ReportMetric(cold, "coldRatio")
}

// BenchmarkFig7SettledUtilization regenerates Figure 7 (FIG7) over two
// sequential auctions.
func BenchmarkFig7SettledUtilization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := sim.Fig7(benchConfig(200+int64(i)), 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Groups) == 0 {
			b.Fatal("no boxplot groups")
		}
	}
}

// BenchmarkTable1BidPremiums regenerates Table I (TAB1): three sequential
// auctions with evolving bidder sophistication.
func BenchmarkTable1BidPremiums(b *testing.B) {
	b.ReportAllocs()
	var medianDrop float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.Table1(benchConfig(300+int64(i)), 3)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Median > 0 {
			medianDrop = rows[2].Median / rows[0].Median
		}
	}
	b.ReportMetric(medianDrop, "medianRatioA3overA1")
}

// BenchmarkBaselineComparison regenerates the BASE experiment: fixed
// price vs manual quota vs proportional share vs market.
func BenchmarkBaselineComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := sim.Baseline(benchConfig(400 + int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkMigration regenerates the MIGR experiment over three auctions.
func BenchmarkMigration(b *testing.B) {
	b.ReportAllocs()
	var coldShare float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.Migration(benchConfig(500+int64(i)), 3)
		if err != nil {
			b.Fatal(err)
		}
		coldShare = rows[len(rows)-1].ColdShare
	}
	b.ReportMetric(coldShare, "coldShare")
}

// runSynthetic runs one synthetic pure market to convergence.
func runSynthetic(b *testing.B, seed int64, users, pools int) *core.Result {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg, bids := sim.SyntheticMarket(rng, users, pools)
	start := reg.Zero()
	for i := range start {
		start[i] = 0.5
	}
	a, err := core.NewAuction(reg, bids, core.Config{
		Start:  start,
		Policy: core.Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkClockAuctionPaperScale is the SCALE experiment's headline
// point: the paper's Python simulator took "a few minutes" at 100 bidders
// × 100 resources; optimized compiled code should be orders of magnitude
// faster.
func BenchmarkClockAuctionPaperScale(b *testing.B) {
	b.ReportAllocs()
	var rounds int
	for i := 0; i < b.N; i++ {
		res := runSynthetic(b, 42, 100, 100)
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkClockAuctionUsers sweeps the user count at R=100 (SCALE).
func BenchmarkClockAuctionUsers(b *testing.B) {
	b.ReportAllocs()
	for _, users := range []int{25, 100, 400} {
		b.Run(benchName("U", users), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSynthetic(b, 42, users, 100)
			}
		})
	}
}

// BenchmarkClockAuctionPools sweeps the pool count at U=100 (SCALE).
func BenchmarkClockAuctionPools(b *testing.B) {
	b.ReportAllocs()
	for _, pools := range []int{25, 100, 400} {
		b.Run(benchName("R", pools), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSynthetic(b, 42, 100, pools)
			}
		})
	}
}

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
		reg.Add(resource.Pool{Cluster: benchName("sp", i), Dim: resource.CPU})
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
			User:    benchName("u", u),
			Bundles: bundles,
			Limit:   float64(rng.Intn(400) + 25),
		})
	}
	for c := 0; c < contenders; c++ {
		v := reg.Zero()
		v[rng.Intn(hotPools)] = float64(rng.Intn(8) + 8)
		bids = append(bids, &core.Bid{
			User:    benchName("hot", c),
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
// prebuilt auction re-run through RunReusing, so after the warm-up that
// sizes its scratch and the recycled Result allocs/op must read 0 on the
// serial sweep (the fan-out taken with ≥ 2 lanes at -cpu ≥ 2 spawns its
// workers per run) — and on core.ReferenceRun, which validates and builds
// its auction inside every call. The two run the identical number of
// rounds by construction, so ns/round is the comparison metric.
func benchClockVsReference(b *testing.B, reg *resource.Registry, bids []*core.Bid, wantLanes int) {
	start := reg.Zero()
	for i := range start {
		start[i] = 0.5
	}
	cfg := core.Config{Start: start, Policy: core.Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01}}
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
		res, err := a.Run() // warm-up: scratch + Result sized here
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err = a.RunReusing(res); err != nil {
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

// BenchmarkSparsePlanetEngines is the PR 3 headline: the per-round cost
// of the production clock's incremental demand revelation vs the dense
// reference on the sparse-planet workload (256 pools × 2048 bidders, a
// handful of non-zero components each, one connected component). Results
// are bit-identical (TestIncrementalMatchesDenseDifferential).
func BenchmarkSparsePlanetEngines(b *testing.B) {
	reg, bids := sparsePlanetMarket(9, 2048, 256)
	benchClockVsReference(b, reg, bids, 1)
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
		reg.Add(resource.Pool{Cluster: benchName("sp", i), Dim: resource.CPU})
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
			User:    benchName("u", u),
			Bundles: bundles,
			Limit:   float64(rng.Intn(400) + 25),
		})
	}
	for c := 0; c < contenders; c++ {
		v := reg.Zero()
		v[rng.Intn(k)*per+rng.Intn(hotPools)] = float64(rng.Intn(8) + 8)
		bids = append(bids, &core.Bid{
			User:    benchName("hot", c),
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
			bids = append(bids, &core.Bid{User: benchName("op", r), Limit: -0.001, Bundles: []resource.Vector{v}})
		}
	}
	return reg, bids
}

// BenchmarkPartitionedPlanetEngines is the PR 10 headline: the
// sparse-planet workload with k independent hot components, cleared as k
// lanes by the production clock vs as one merged market by the reference.
// Results are bit-identical (TestPartitionedMatchesMergedDifferential);
// the win on top of incremental revelation is wall-clock: a lane stops
// when *it* freezes, so cold components exit after a few dozen rounds
// instead of being dragged through every hot component's full price-war
// tail, and at -cpu ≥ 2 the k tails overlap on the driver's fan-out.
func BenchmarkPartitionedPlanetEngines(b *testing.B) {
	const kComponents = 8
	reg, bids := sparseRegionalPlanetMarket(9, 2048, 256, kComponents)
	benchClockVsReference(b, reg, bids, kComponents)
}

// BenchmarkAblationIncrementPolicies compares the Section III.C.2 price
// update rules on an identical market: time per full auction plus rounds
// to converge.
func BenchmarkAblationIncrementPolicies(b *testing.B) {
	b.ReportAllocs()
	policies := []core.IncrementPolicy{
		core.Additive{Alpha: 0.02},
		core.Capped{Alpha: 0.02, Delta: 0.25, MinStep: 0.001},
		core.Proportional{Alpha: 0.02, Frac: 0.1, Base: 1},
		core.CostNormalized{Alpha: 0.02, DeltaFrac: 0.25},
	}
	for _, pol := range policies {
		b.Run(pol.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var rounds int
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(77))
				reg, bids := sim.SyntheticMarket(rng, 100, 50)
				start := reg.Zero()
				for j := range start {
					start[j] = 0.5
				}
				a, err := core.NewAuction(reg, bids, core.Config{Start: start, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.Run()
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationReserveCurves compares the three Figure 2 weighting
// functions as the market's reserve curve, reporting the hot-pool price
// ratio each produces.
func BenchmarkAblationReserveCurves(b *testing.B) {
	b.ReportAllocs()
	curves := []struct {
		name string
		fn   reserve.WeightFn
	}{
		{"phi1-exp-steep", reserve.ExpSteep},
		{"phi2-exp-mild", reserve.ExpMild},
		{"phi3-hyperbolic", reserve.Hyperbolic},
	}
	for _, c := range curves {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var hot float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(600)
				cfg.Weight = c.fn
				d, err := sim.Fig6(cfg)
				if err != nil {
					b.Fatal(err)
				}
				hot, _ = d.CongestionPriceCorrelation(0.75, 0.4)
			}
			b.ReportMetric(hot, "hotRatio")
		})
	}
}

// BenchmarkAblationSchedulers compares the bin-packing policies in the
// cluster substrate, reporting CPU stranding.
func BenchmarkAblationSchedulers(b *testing.B) {
	b.ReportAllocs()
	for _, sched := range cluster.Schedulers() {
		b.Run(sched.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var stranding float64
			for i := 0; i < b.N; i++ {
				c := cluster.New("bench", sched)
				c.AddMachines(32, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
				rng := rand.New(rand.NewSource(88))
				for t := 0; t < 400; t++ {
					req := cluster.Usage{
						CPU:  1 + rng.Float64()*7,
						RAM:  2 + rng.Float64()*30,
						Disk: 0.2 + rng.Float64()*2,
					}
					id := benchName("t", t)
					if err := c.Place(cluster.Task{ID: id, Team: "bench", Req: req}); err != nil {
						break
					}
				}
				stranding = c.Stranding().CPU
			}
			b.ReportMetric(stranding, "cpuStranding")
		})
	}
}

// BenchmarkAblationOptimizerVsClock compares the clock auction against
// the explicitly-optimizing allocators from Section III.C.4's discussion:
// time per allocation plus the welfare each achieves (reported as the
// `welfare` metric; the clock trades some of it away for fair uniform
// prices).
func BenchmarkAblationOptimizerVsClock(b *testing.B) {
	b.ReportAllocs()
	build := func() (*core.Auction, []*core.Bid, func() (float64, error)) {
		rng := rand.New(rand.NewSource(31))
		reg, bids := sim.SyntheticMarket(rng, 100, 30)
		reserve := reg.Zero()
		for i := range reserve {
			reserve[i] = 0.5
		}
		a, err := core.NewAuction(reg, bids, core.Config{
			Start:  reserve,
			Policy: core.Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
		})
		if err != nil {
			b.Fatal(err)
		}
		greedy := func() (float64, error) {
			r, err := optimize.Greedy(reg, bids, reserve, optimize.TotalSurplus)
			if err != nil {
				return 0, err
			}
			return r.Welfare, nil
		}
		return a, bids, greedy
	}
	b.Run("clock", func(b *testing.B) {
		b.ReportAllocs()
		var welfare float64
		for i := 0; i < b.N; i++ {
			a, bids, _ := build()
			res, err := a.Run()
			if err != nil {
				b.Fatal(err)
			}
			reserve := make([]float64, len(res.Prices))
			for j := range reserve {
				reserve[j] = 0.5
			}
			welfare, err = optimize.EvaluateWelfare(bids, res.ChosenBundle, reserve, optimize.TotalSurplus)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(welfare, "welfare")
	})
	b.Run("greedy-optimizer", func(b *testing.B) {
		b.ReportAllocs()
		var welfare float64
		for i := 0; i < b.N; i++ {
			_, _, greedy := build()
			w, err := greedy()
			if err != nil {
				b.Fatal(err)
			}
			welfare = w
		}
		b.ReportMetric(welfare, "welfare")
	})
}

// BenchmarkClockProgression regenerates the clock-progression figure.
func BenchmarkClockProgression(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := sim.ClockProgression(benchConfig(800+int64(i)), 3)
		if err != nil {
			b.Fatal(err)
		}
		if d.Rounds < 2 {
			b.Fatal("degenerate clock")
		}
	}
}

// BenchmarkWebSummaryRender measures the market summary render path
// (Figure 3).
func BenchmarkWebSummaryRender(b *testing.B) {
	b.ReportAllocs()
	w, err := sim.NewWorld(benchConfig(700))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.RunAuction(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := w.Exchange.Summary()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty summary")
		}
	}
}

// benchFleet builds a fleet of `clusters` uniform clusters named
// "<prefix>r1"…, with the first filled hot for price contrast.
func benchFleet(b *testing.B, prefix string, clusters int) *cluster.Fleet {
	b.Helper()
	f := cluster.NewFleet()
	for i := 1; i <= clusters; i++ {
		c := cluster.New(benchName(prefix+"r", i), nil)
		c.AddMachines(20, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(c); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	if err := f.FillToUtilization(rng, prefix+"r1", cluster.Usage{CPU: 0.8, RAM: 0.8, Disk: 0.8}); err != nil {
		b.Fatal(err)
	}
	return f
}

// benchExchange builds a thread-safe exchange over a hot/cold fleet of
// `clusters` clusters with `teams` funded accounts ("bt0", "bt1", …).
func benchExchange(b *testing.B, teams, clusters int) *market.Exchange {
	b.Helper()
	ex, err := market.NewExchange(benchFleet(b, "", clusters), market.Config{InitialBudget: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < teams; i++ {
		if err := ex.OpenAccount(benchName("bt", i)); err != nil {
			b.Fatal(err)
		}
	}
	return ex
}

// The throughput benchmarks (BenchmarkEpochLoop vs the
// BenchmarkFederatedSubmit sweep) run the same planet-wide workload over
// the same planet-wide fleet — planetCold cold clusters p1…p12 plus one
// hot cluster h1 — structured either as one monolithic market or as R
// regional markets partitioning the clusters. Every order is a global
// substitution bundle ("one batch-compute worker in ANY cold cluster",
// the paper's Section II XOR at planetary width): the monolithic
// auctioneer carries all 12 alternatives of every order through every
// clock round, while the federation's price board books only the
// cheapest region's alternatives and touches the rest only on failover.
const planetCold = 12

// benchColdNames lists the planet's cold clusters.
func benchColdNames() []string {
	out := make([]string, planetCold)
	for i := range out {
		out[i] = benchName("p", i+1)
	}
	return out
}

// benchTargets is order i's XOR alternative set: a rotating window of
// four cold clusters. Rotation matters: if every order carried the
// identical alternative set, all active proxies would chase the same
// cheapest cluster in lockstep every round and the clock would have to
// price out everything beyond one cluster's capacity. Under the
// round-robin region partition, consecutive clusters land in different
// regions, so these orders are genuinely cross-region for every sweep
// point.
func benchTargets(i int) []string {
	out := make([]string, 4)
	for k := range out {
		out[k] = benchName("p", 1+(i+k)%planetCold)
	}
	return out
}

// benchPlanetFleet builds the slice of the planet owned by region idx of
// R: every R-th cold cluster, plus the hot cluster h1 in region 0.
func benchPlanetFleet(b *testing.B, idx, regions int) *cluster.Fleet {
	b.Helper()
	f := cluster.NewFleet()
	add := func(name string) {
		c := cluster.New(name, nil)
		// Big clusters: the throughput benchmarks measure the market
		// machinery, so the planet should rarely run out of sellable
		// capacity pressure rations the margin without mass starvation (which
		// just multiplies noisy failover retries).
		c.AddMachines(100, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(c); err != nil {
			b.Fatal(err)
		}
	}
	for i := idx; i < planetCold; i += regions {
		add(benchName("p", i+1))
	}
	if idx == 0 {
		add("h1")
		rng := rand.New(rand.NewSource(12))
		if err := f.FillToUtilization(rng, "h1", cluster.Usage{CPU: 0.8, RAM: 0.8, Disk: 0.8}); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// benchPlanetExchange is the monolithic structuring: one exchange over
// the whole planet.
func benchPlanetExchange(b *testing.B, teams int) *market.Exchange {
	b.Helper()
	ex, err := market.NewExchange(benchPlanetFleet(b, 0, 1), market.Config{InitialBudget: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < teams; i++ {
		if err := ex.OpenAccount(benchName("bt", i)); err != nil {
			b.Fatal(err)
		}
	}
	return ex
}

// BenchmarkConcurrentSubmit measures order-entry throughput with all
// CPUs submitting into one exchange at once — the web tier's hot path
// now that handlers are no longer serialized behind a server mutex.
func BenchmarkConcurrentSubmit(b *testing.B) {
	b.ReportAllocs()
	ex := benchExchange(b, 16, 2)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		team := benchName("bt", int(worker.Add(1)-1)%16)
		for pb.Next() {
			if _, err := ex.SubmitProduct(team, "batch-compute", 1, []string{"r2"}, 5); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(len(ex.Orders())), "orders")
}

// BenchmarkParallelSubmit is the sharded-intake scaling benchmark: all
// CPUs submit XOR product orders into one exchange at once, with the
// book striped so submits in different stripes never share a lock. Teams
// hash across account stripes and orders round-robin across book
// stripes, so the only shared write is one atomic counter. Run with
//
//	go test -run xxx -bench ParallelSubmit -cpu 1,4,8 .
//
// to sweep the worker count; on multicore hardware ops/sec should rise
// with -cpu where the PR 3 book was flat (every submit fought one
// mutex). allocs/op is reported so regressions on the admission path's
// per-order allocation count (bid clone + bundle vectors) are visible.
func BenchmarkParallelSubmit(b *testing.B) {
	b.ReportAllocs()
	ex := benchExchange(b, 16, 8)
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1) - 1)
		team := benchName("bt", w%16)
		i := 0
		for pb.Next() {
			cl := benchName("r", 1+(i+w)%8)
			if _, err := ex.SubmitProduct(team, "batch-compute", 1, []string{cl}, 5); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(ex.OpenOrderCount()), "orders")
}

// BenchmarkEpochLoop measures the full continuous-trading pipeline
// (admit → batch → clock → settle) through one monolithic planet-wide
// exchange: globally substitutable orders are admitted, then the book
// drains through epoch ticks until every order reaches a terminal
// state. settled/s — orders settled as Won per wall-clock second of the
// whole pipeline — is the single-exchange baseline for the
// BenchmarkFederatedSubmit sweep; it reflects both the auctioneer's
// speed and how much of the demand one global clock actually fills.
// Run with a fixed -benchtime (the CI smoke uses 1x); a time-based
// benchtime lets the book outgrow the auctioneer.
func BenchmarkEpochLoop(b *testing.B) {
	b.ReportAllocs()
	benchEpochLoop(b, benchPlanetExchange(b, 16))
}

// BenchmarkEpochLoopDurable is BenchmarkEpochLoop with the write-ahead
// log attached: every account, order, auction outcome, and settlement is
// journaled before it is applied. fsync-every-1 fsyncs each appended
// batch — the durability ceiling — while fsync-every-16 shows what group
// commit buys back. Compare settled/s against BenchmarkEpochLoop to read
// the durability tax; BenchmarkEpochLoop itself must not move (a nil
// journal is a nil check on the hot path, nothing more).
func BenchmarkEpochLoopDurable(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("fsync-every-%d", window), func(b *testing.B) {
			b.ReportAllocs()
			j, rec, err := journal.Open(b.TempDir(), journal.Options{FsyncEvery: window})
			if err != nil {
				b.Fatal(err)
			}
			if !rec.Empty() {
				b.Fatal("fresh journal dir is not empty")
			}
			defer j.Close()
			ex, err := market.NewExchange(benchPlanetFleet(b, 0, 1),
				market.Config{InitialBudget: 1e12, Journal: j})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := ex.OpenAccount(benchName("bt", i)); err != nil {
					b.Fatal(err)
				}
			}
			benchEpochLoop(b, ex)
		})
	}
}

// benchEpochLoop drives the shared submit-then-drain pipeline for the
// epoch-loop benchmarks against an already-built planet exchange.
func benchEpochLoop(b *testing.B, ex *market.Exchange) {
	loop, err := market.NewLoop(ex, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}

	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1) - 1)
		team := benchName("bt", w%16)
		i := 0
		for pb.Next() {
			limit := float64(5 + (i*7+w*13)%60)
			if _, err := ex.SubmitProduct(team, "batch-compute", 1, benchTargets(i), limit); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	// Drain inside the timed window via explicit epoch ticks: every
	// admitted order must settle (won, lost, or retired), so the
	// measurement covers the auctioneer, not just order admission —
	// deterministic epoch boundaries keep runs comparable.
	for i := 0; ex.OpenOrderCount() > 0; i++ {
		if i >= 1000 {
			b.Fatal("book did not drain")
		}
		if _, err := loop.Tick(); err != nil && !errors.Is(err, core.ErrNoConvergence) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := loop.Stats()
	b.ReportMetric(float64(s.Auctions), "auctions")
	b.ReportMetric(float64(s.SettledOrders), "wonOrders")
	// settled/s counts orders settled as Won per wall-clock second (the
	// LoopStats.SettledOrders sense): successfully provisioned demand,
	// not just orders reaching a terminal state.
	b.ReportMetric(float64(s.SettledOrders)/b.Elapsed().Seconds(), "settled/s")
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

// BenchmarkEpochLoopFirehose is BenchmarkEpochLoop with the telemetry
// firehose attached: the no-subscriber run must be indistinguishable
// from the baseline (publish is a nil check plus an atomic load), and
// the subscriber run prices the full event pipeline — materialization,
// publish, and a concurrent drain — against the same workload.
func BenchmarkEpochLoopFirehose(b *testing.B) {
	for _, mode := range []string{"no-subscriber", "subscriber"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			fire := telemetry.NewFirehose()
			if mode == "subscriber" {
				sub := fire.Subscribe(1 << 12)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for range sub.C {
					}
				}()
				defer func() { sub.Close(); <-done }()
			}
			ex, err := market.NewExchange(benchPlanetFleet(b, 0, 1),
				market.Config{InitialBudget: 1e12, Telemetry: fire})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if err := ex.OpenAccount(benchName("bt", i)); err != nil {
					b.Fatal(err)
				}
			}
			benchEpochLoop(b, ex)
			b.ReportMetric(float64(fire.Published()), "events")
		})
	}
}

// benchFederation partitions the planet-wide fleet into an R-region
// federation, with `teams` accounts funded in every region.
func benchFederation(b *testing.B, regions, teams int) *federation.Federation {
	b.Helper()
	rs := make([]*federation.Region, 0, regions)
	for i := 0; i < regions; i++ {
		r, err := federation.NewRegion(benchName("fr", i), benchPlanetFleet(b, i, regions), market.Config{InitialBudget: 1e12})
		if err != nil {
			b.Fatal(err)
		}
		rs = append(rs, r)
	}
	fed, err := federation.NewFederation(rs...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < teams; i++ {
		if err := fed.OpenAccount(benchName("bt", i)); err != nil {
			b.Fatal(err)
		}
	}
	return fed
}

// BenchmarkFederatedSubmit is the SCALE sweep over the region count: the
// identical planet-wide fleet and order flow as BenchmarkEpochLoop,
// structured as R regional markets behind the federation router instead
// of one monolithic book. Each global XOR order enters only its
// cheapest region's book (per the price board), so every regional clock
// carries a fraction of the planet's alternatives, regions settle
// concurrently per Tick, and a leg priced out of one region fails over
// to the next instead of being stranded the way the monolithic clock
// strands it. The timed window again runs until every book drains,
// making settled/s (won orders per second) directly comparable with the
// baseline. Run with a fixed -benchtime, as with BenchmarkEpochLoop.
func BenchmarkFederatedSubmit(b *testing.B) {
	b.ReportAllocs()
	for _, regions := range []int{2, 4, 8} {
		b.Run(benchName("R", regions), func(b *testing.B) {
			b.ReportAllocs()
			fed := benchFederation(b, regions, 16)

			var worker atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(worker.Add(1) - 1)
				team := benchName("bt", w%16)
				i := 0
				for pb.Next() {
					limit := float64(5 + (i*7+w*13)%60)
					if _, err := fed.SubmitProduct(team, "batch-compute", 1, benchTargets(i), limit); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			// Drain all regional books inside the timed window; each
			// Tick settles every region concurrently and advances
			// failovers — deterministic epoch boundaries, as in the
			// baseline.
			for i := 0; openAcrossRegions(fed) > 0; i++ {
				if i >= 1000 {
					b.Fatal("books did not drain")
				}
				fed.Tick()
			}
			b.StopTimer()
			won := 0
			for _, r := range fed.Regions() {
				for _, rec := range r.Exchange().History() {
					won += rec.Settled
				}
			}
			st := fed.Stats()
			b.ReportMetric(float64(won), "wonOrders")
			b.ReportMetric(float64(st.Failovers), "failovers")
			b.ReportMetric(float64(won)/b.Elapsed().Seconds(), "settled/s")
		})
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

func wideExchange(b *testing.B) *market.Exchange {
	b.Helper()
	f := cluster.NewFleet()
	for r := 0; r < wideRegions; r++ {
		for c := 0; c < wideClusters; c++ {
			cl := cluster.New(benchName("w", r)+benchName("c", c), nil)
			cl.AddMachines(1, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := f.AddCluster(cl); err != nil {
				b.Fatal(err)
			}
		}
	}
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	if err := ex.OpenAccount("wide"); err != nil {
		b.Fatal(err)
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
			cs[j] = benchName("w", region) + benchName("c", (first+j)%wideClusters)
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

// BenchmarkNewAuctionFromBook is the stage between the book and round 0
// of the clock: core.NewAuction over 4096 already-booked bids plus the
// operator's 64 supply bids at R = 192 (validate every bid, build the
// proxies), then Components, which forces the sub-market decomposition
// and its pool remap.
func BenchmarkNewAuctionFromBook(b *testing.B) {
	b.ReportAllocs()
	ex := wideExchange(b)
	clusters, limits := wideOrders()
	for k := range clusters {
		if _, err := ex.SubmitProduct("wide", "batch-compute", 1, clusters[k], limits[k]); err != nil {
			b.Fatal(err)
		}
	}
	reg := ex.Registry()
	var bids []*core.Bid
	for _, o := range ex.OpenOrders() {
		bids = append(bids, o.Bid)
	}
	free := ex.Fleet().FreeVector(reg)
	for _, cl := range reg.Clusters() {
		supply := reg.Zero()
		for _, i := range reg.ClusterPools(cl) {
			supply[i] = -free[i] * 0.8
		}
		bids = append(bids, &core.Bid{User: market.OperatorAccount, Bundles: []resource.Vector{supply}, Limit: -0.000001})
	}
	start, err := ex.ReservePrices()
	if err != nil {
		b.Fatal(err)
	}
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
		b.Run(benchName("R", 3*clusters), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			targets := make([][]string, wideBook)
			for k := range targets {
				first := rng.Intn(13)
				for j := 1 + rng.Intn(3); j > 0; j-- {
					targets[k] = append(targets[k], benchName("k", (first+j)%13))
				}
			}
			var open, settled [2]float64 // bytes, objects an order
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := cluster.NewFleet()
				for c := 0; c < clusters; c++ {
					cl := cluster.New(benchName("k", c), nil)
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

// openAcrossRegions sums the open orders over every regional book.
func openAcrossRegions(fed *federation.Federation) int {
	n := 0
	for _, r := range fed.Regions() {
		n += r.Exchange().OpenOrderCount()
	}
	return n
}

// benchName formats sweep sub-bench names without fmt (keeps the hot loop
// allocation-free).
func benchName(prefix string, n int) string {
	if n == 0 {
		return prefix + "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return prefix + string(digits)
}

var _ = io.Discard // reserved for render benchmarks

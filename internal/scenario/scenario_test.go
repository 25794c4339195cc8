package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/resource"
)

var backendKinds = []string{"exchange", "federation"}

// runNamed is the test harness: build the backend, run the scenario,
// and fail on any engine error.
func runNamed(t *testing.T, name, kind string, cfg Config) *Report {
	t.Helper()
	sc, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCatalogCleanOnBothBackends is the acceptance gate: every named
// scenario runs end to end on both the single-exchange and federated
// backends, actually trades, and passes the shared invariant kernel
// after every epoch.
func TestCatalogCleanOnBothBackends(t *testing.T) {
	for _, sc := range Catalog() {
		for _, kind := range backendKinds {
			t.Run(sc.Name+"/"+kind, func(t *testing.T) {
				rep := runNamed(t, sc.Name, kind, Config{Seed: 42})
				for _, v := range rep.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				var submitted, converged, won int
				for _, s := range rep.Epochs {
					submitted += s.Submitted
					converged += s.Converged
					won += s.Won
				}
				if submitted == 0 || converged == 0 || won == 0 {
					t.Errorf("degenerate run: submitted=%d converged=%d won=%d", submitted, converged, won)
				}
			})
		}
	}
}

// TestSameSeedBitIdentical pins the engine's reproducibility contract:
// two runs of the same scenario, backend, and seed produce bit-identical
// epoch summaries (and therefore identical fingerprints). This is the
// satellite test for the RNG/map-iteration nondeterminism audit — any
// unseeded randomness or map-order dependence anywhere under the engine
// (exchange settlement, federation routing, placement) breaks it.
func TestSameSeedBitIdentical(t *testing.T) {
	for _, sc := range Catalog() {
		for _, kind := range backendKinds {
			t.Run(sc.Name+"/"+kind, func(t *testing.T) {
				a := runNamed(t, sc.Name, kind, Config{Seed: 97})
				b := runNamed(t, sc.Name, kind, Config{Seed: 97})
				if a.Fingerprint() != b.Fingerprint() {
					t.Errorf("same-seed fingerprints diverged: %s vs %s", a.Fingerprint(), b.Fingerprint())
				}
				if !reflect.DeepEqual(a.Epochs, b.Epochs) {
					t.Errorf("same-seed epoch summaries diverged:\n%+v\nvs\n%+v", a.Epochs, b.Epochs)
				}
			})
		}
	}
}

// goldenFingerprints are Report.Fingerprint() of every catalog scenario on
// both backends at seed 97, captured on amd64 at the commit before the
// clock's merged/partitioned and dense/incremental modes were collapsed
// into one production path (paper-pilot's when it joined the catalog).
var goldenFingerprints = []struct{ scenario, kind, fingerprint string }{
	{"adaptive-learning", "exchange", "fb210b63be26baeb6f17dbb3cd2d4cdbe789a24a0e91150481fc223fe5c136ef"},
	{"adaptive-learning", "federation", "4f50b54df769574b895e7c13be32b5ce4b5795cd1e13af4524936fca326b1d8f"},
	{"churn", "exchange", "dc601b187e70f39ba490968223e3faf9e3cd73cc1593dcad6ebc4113f3d4a801"},
	{"churn", "federation", "ff7191024484910c2f547ff1c2404897efe87cbf2e82b1baed4d8588e0046c53"},
	{"crash-recovery", "exchange", "13f28282585e07e57508951e3149e8fdae79bba41df4d0b0fcb4fbeb7eefa7f1"},
	{"crash-recovery", "federation", "0851d82fa01b02bed10b7b7ceaeced330217a43ababc6b70758e2d0720663e98"},
	{"disk-fault", "exchange", "e148e6d9889ddfcd52c4176d88d73eb880f81af5e9040fc218743402f696b151"},
	{"disk-fault", "federation", "a9db3aeeb689aa4f5bae1f7d826d64918795292d442500fec379ddfdc083688a"},
	{"diurnal", "exchange", "d8ba7553eda1c6190ad1fdaa2434671eaba1438a4d7a68f7a7b174900fe2fd82"},
	{"diurnal", "federation", "6dac146795d184bd1ac1c932334ddb133a75ca9f3f3549fe35370f2e8fc318c6"},
	{"flash-crowd", "exchange", "57980c7d5e3bf1f8dc4a6dcfeb2e5e83b0975331a667e7e1c79e7df8b0434c1a"},
	{"flash-crowd", "federation", "f7d9f78fd0b948c8e799628a014cdb58be09bd5c465546eb8675169ad086579f"},
	{"paper-pilot", "exchange", "a6a1eda4b6dcbd4482fd518ab9a651ceaee7611fac15c27363ff16cbadd63ec9"},
	{"paper-pilot", "federation", "802333d98d7735b8f313994d056b77e90cedf5b18f4ed0553064c37cf03ab0a8"},
	{"partition-storm", "exchange", "deac9cddb1ca011c4c40e227b581338038e2166b9a067646c6e92fb792626c48"},
	{"partition-storm", "federation", "6dd7651791ca778ffdc32037610be948f98019f1032c0ec5b33385205ef527a2"},
	{"region-outage", "exchange", "d0d7039cff15ac952fc66c895b6982284d257a2efcd1161f550fe75a5512e79f"},
	{"region-outage", "federation", "da3751001db9533638fc018de07d48ebcc3aaf36a73d6e53f7e9861af1980cc6"},
	{"trader-storm", "exchange", "894aba85b3fdf18435c54298173fcc55126dad9fc4c514de8b1c61edfbc53dd2"},
	{"trader-storm", "federation", "dd88139952e05f67a6a9897269b0f325b4570f9ab2fcc8be53a87655013ec46c"},
}

// TestGoldenFingerprints pins the market's outcomes absolutely, not
// just run against run: prices, premiums, settlement order and every
// epoch summary field of every catalog scenario must hash to the recorded
// value, so a refactor of the clock, the exchange or the federation that
// changes any settled bit fails here. They were captured on an amd64 CPU
// with FMA. The reserve prices go through the standard library's
// math.Exp, which fuses on arm64 and on such CPUs, and make fma-check
// covers only clustermarket code: GODEBUG=cpu.fma=off moves 17 of them.
func TestGoldenFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden fingerprints were captured on amd64")
	}
	if len(goldenFingerprints) != len(Catalog())*len(backendKinds) {
		t.Fatalf("%d golden fingerprints for %d scenarios × %d backends", len(goldenFingerprints), len(Catalog()), len(backendKinds))
	}
	for _, g := range goldenFingerprints {
		t.Run(g.scenario+"/"+g.kind, func(t *testing.T) {
			rep := runNamed(t, g.scenario, g.kind, Config{Seed: 97})
			if got := rep.Fingerprint(); got != g.fingerprint {
				t.Errorf("fingerprint %s, golden %s", got, g.fingerprint)
			}
		})
	}
}

// TestDifferentSeedsDiverge guards the fingerprint itself: if two runs
// with different seeds hash identically, the fingerprint is not actually
// covering the summaries.
func TestDifferentSeedsDiverge(t *testing.T) {
	for _, kind := range backendKinds {
		a := runNamed(t, "diurnal", kind, Config{Seed: 1})
		b := runNamed(t, "diurnal", kind, Config{Seed: 2})
		if a.Fingerprint() == b.Fingerprint() {
			t.Errorf("%s: different seeds produced identical fingerprints", kind)
		}
	}
}

// TestAdaptiveLearningReproducesTableI asserts the paper's learning
// curve: with adaptive premium shading, the median settled premium γ_u
// falls substantially across successive auctions (Table I shows the
// median dropping every auction as bidders learn the market).
func TestAdaptiveLearningReproducesTableI(t *testing.T) {
	for _, kind := range backendKinds {
		rep := runNamed(t, "adaptive-learning", kind, Config{Seed: 42})
		n := len(rep.Epochs)
		early := (rep.Epochs[0].MedianPremium + rep.Epochs[1].MedianPremium) / 2
		late := (rep.Epochs[n-1].MedianPremium + rep.Epochs[n-2].MedianPremium) / 2
		if late >= early/2 {
			t.Errorf("%s: premiums did not learn down: early median %.3f, late median %.3f", kind, early, late)
		}
	}
}

// TestFlashCrowdHeatsHotPool asserts prices track congestion: the burst
// of demand pinned to region r1's hot pool must leave r1's CPU price
// above its pre-crowd level.
func TestFlashCrowdHeatsHotPool(t *testing.T) {
	for _, kind := range backendKinds {
		rep := runNamed(t, "flash-crowd", kind, Config{Seed: 42})
		pre := rep.Epochs[2].Prices[0]
		post := rep.Epochs[5].Prices[0]
		if pre.Region != "r1" || post.Region != "r1" {
			t.Fatalf("%s: price rows not in region order: %+v", kind, rep.Epochs[2].Prices)
		}
		if post.MeanCPU <= pre.MeanCPU {
			t.Errorf("%s: flash crowd did not heat r1: %.3f -> %.3f", kind, pre.MeanCPU, post.MeanCPU)
		}
	}
}

// TestDiurnalDemandFollowsWave asserts the wave actually modulates the
// submitted order flow: peak epochs carry more demand than troughs.
func TestDiurnalDemandFollowsWave(t *testing.T) {
	for _, kind := range backendKinds {
		rep := runNamed(t, "diurnal", kind, Config{Seed: 42})
		peak := rep.Epochs[1].Submitted + rep.Epochs[2].Submitted
		trough := rep.Epochs[5].Submitted + rep.Epochs[6].Submitted
		if peak <= trough {
			t.Errorf("%s: demand did not follow the wave: peak epochs %d orders, trough epochs %d", kind, peak, trough)
		}
	}
}

// TestRegionOutageSkipsAndRejoins asserts the chaos path on the
// federated backend: while r2 is dark its auctions stop (one fewer
// settlement record per wave), and after the rejoin the full region set
// settles again.
func TestRegionOutageSkipsAndRejoins(t *testing.T) {
	rep := runNamed(t, "region-outage", "federation", Config{Seed: 42})
	for _, s := range rep.Epochs {
		dark := len(s.Dark) > 0
		switch {
		case dark && s.Auctions > 2:
			t.Errorf("epoch %d: %d auctions while %v dark", s.Epoch, s.Auctions, s.Dark)
		case dark && !strings.Contains(strings.Join(s.Dark, ","), "r2"):
			t.Errorf("epoch %d: unexpected dark set %v", s.Epoch, s.Dark)
		}
	}
	last := rep.Epochs[len(rep.Epochs)-1]
	if last.Auctions != 3 {
		t.Errorf("after rejoin, final epoch settled %d regions, want 3", last.Auctions)
	}
	if len(rep.Epochs[3].Dark) == 0 || len(rep.Epochs[6].Dark) != 0 {
		t.Errorf("outage window not where scripted: %+v", rep.Epochs)
	}
}

// TestTraderStormForcesNonConvergenceAndRecovers asserts the hostile
// path end to end: during the storm the poisoned clocks hit MaxRounds
// (non-convergent epochs), the livelock guard retires stranded batches
// as Unsettled, and once the storm passes the market clears again —
// with the invariant kernel green throughout (checked by the catalog
// gate above; re-checked here on this run).
func TestTraderStormForcesNonConvergenceAndRecovers(t *testing.T) {
	for _, kind := range backendKinds {
		rep := runNamed(t, "trader-storm", kind, Config{Seed: 42})
		for _, v := range rep.Violations {
			t.Errorf("%s: invariant violated during storm: %s", kind, v)
		}
		stormEpochs, unsettled := 0, 0
		for _, s := range rep.Epochs {
			if s.Auctions > 0 && s.Converged < s.Auctions {
				stormEpochs++
			}
			unsettled += s.Unsettled
		}
		if stormEpochs < 2 {
			t.Errorf("%s: only %d non-convergent epochs; storm did not bite", kind, stormEpochs)
		}
		if unsettled == 0 {
			t.Errorf("%s: no orders retired Unsettled; livelock guard never fired", kind)
		}
		last := rep.Epochs[len(rep.Epochs)-1]
		if last.Converged == 0 || last.Won == 0 {
			t.Errorf("%s: market did not recover after the storm: %+v", kind, last)
		}
	}
}

// TestHeldLaneLeavesOtherLanesSettling pins per-lane settlement on
// catalog runs: in each row, some auction holds a lane that ran out of
// rounds (its record says Converged=false) and still settles winners in
// its other lanes, with the invariant kernel clean on every run. Each
// row is a run range known to hold such an auction.
func TestHeldLaneLeavesOtherLanesSettling(t *testing.T) {
	for _, row := range []struct {
		scenario, kind string
		first, last    int64
	}{
		{"trader-storm", "exchange", 1, 16}, // seeds 3 and 10
		{"flash-crowd", "federation", 16, 16},
	} {
		t.Run(row.scenario+"/"+row.kind, func(t *testing.T) {
			hits := 0
			for seed := row.first; seed <= row.last; seed++ {
				rep := runNamed(t, row.scenario, row.kind, Config{Seed: seed})
				for _, v := range rep.Violations {
					t.Errorf("seed %d: invariant violated: %s", seed, v)
				}
				for _, s := range rep.Epochs {
					for _, rec := range s.Records {
						if !rec.Converged && rec.Settled > 0 {
							hits++
						}
					}
				}
			}
			if hits == 0 {
				t.Errorf("seeds %d–%d: no auction held a lane and settled others", row.first, row.last)
			}
		})
	}
}

// TestChurnKeepsMarketLiquid asserts a quarter of the population being
// new every epoch (with budget refresh cycles) never starves the market:
// every epoch still settles trades.
func TestChurnKeepsMarketLiquid(t *testing.T) {
	rep := runNamed(t, "churn", "federation", Config{Seed: 42})
	for _, s := range rep.Epochs {
		if s.Settled == 0 {
			t.Errorf("epoch %d settled nothing under churn", s.Epoch)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("catalog has %d scenarios, want >= 5", len(names))
	}
	for _, want := range []string{"diurnal", "flash-crowd", "churn", "region-outage", "adaptive-learning", "trader-storm"} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("Lookup(%q): %v", want, err)
		}
	}
	if _, err := Lookup("no-such"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := NewBackend("no-such", Config{}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestSubmitCancelBidRoundTrip exercises the raw-bid path both kinds
// expose for event injection: a booked bid can be withdrawn (the
// rollback injectTraderPair uses when a pair's second leg is rejected),
// and clusters no market holds are rejected.
func TestSubmitCancelBidRoundTrip(t *testing.T) {
	for _, kind := range backendKinds {
		cfg := Config{Seed: 11}
		b, err := NewBackend(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.OpenAccount("raw"); err != nil {
			t.Fatal(err)
		}
		cn := b.ClustersOf("r1")[0]
		reg := b.RegistryFor(cn)
		v := reg.Zero()
		i, ok := reg.Index(resource.Pool{Cluster: cn, Dim: resource.CPU})
		if !ok {
			t.Fatalf("%s: no CPU pool in %q", kind, cn)
		}
		v[i] = 4
		id, err := b.SubmitBid(cn, "raw", &core.Bid{User: "raw/x", Bundles: []resource.Vector{v}, Limit: 50})
		if err != nil {
			t.Fatalf("%s: SubmitBid: %v", kind, err)
		}
		if err := b.CancelBid(cn, id); err != nil {
			t.Fatalf("%s: CancelBid: %v", kind, err)
		}
		if err := b.CancelBid(cn, id); err == nil {
			t.Errorf("%s: double cancel accepted", kind)
		}
		if _, err := b.SubmitBid("mars-c1", "raw", &core.Bid{User: "raw/y", Bundles: []resource.Vector{v}, Limit: 5}); err == nil {
			t.Errorf("%s: bid for unknown cluster accepted", kind)
		}
		if err := b.CancelBid("mars-c1", 0); err == nil {
			t.Errorf("%s: cancel for unknown cluster accepted", kind)
		}
	}
}

// TestExchangeKindIsOneMarket pins the two kinds' shapes: the exchange
// kind is a federation of one market holding every region's clusters,
// named outside r1…rN so region-scoped faults and dark sets never reach
// it, while the federation kind has one market per region. Both journal
// each market to JournalDir/<market> and the router to JournalDir/fed.
func TestExchangeKindIsOneMarket(t *testing.T) {
	cfg := Config{Seed: 5}
	for _, kind := range backendKinds {
		cfg.JournalDir = t.TempDir()
		b, err := NewBackend(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		markets := b.fed.Regions()
		var want []string
		switch kind {
		case "exchange":
			if len(markets) != 1 {
				t.Fatalf("exchange kind has %d markets, want 1", len(markets))
			}
			m := markets[0]
			if got := len(m.Clusters()); got != numRegions*clustersPerRegion {
				t.Errorf("exchange market holds %d clusters, want %d", got, numRegions*clustersPerRegion)
			}
			for _, rn := range b.Regions() {
				if m.Name() == rn {
					t.Errorf("exchange market is named after scenario region %q", rn)
				}
				for _, cn := range b.ClustersOf(rn) {
					if b.fed.RegionOf(cn) != m.Name() {
						t.Errorf("cluster %s not in the exchange market", cn)
					}
				}
			}
			want = []string{m.Name()}
		case "federation":
			for _, m := range markets {
				want = append(want, m.Name())
			}
			if !reflect.DeepEqual(want, b.Regions()) {
				t.Errorf("federation markets %v, want one per region %v", want, b.Regions())
			}
		}
		for _, name := range append(want, federation.RouterDir) {
			if _, err := os.Stat(filepath.Join(cfg.JournalDir, name, "wal")); err != nil {
				t.Errorf("%s: no journal for %s: %v", kind, name, err)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.JournalDir, "wal")); err == nil {
			t.Errorf("%s: a journal sits at the JournalDir root", kind)
		}
	}
}

// TestConfigOverridesEpochs checks cfg.Epochs overrides the scenario
// default — the cmd/marketsim -epochs flag path.
func TestConfigOverridesEpochs(t *testing.T) {
	rep := runNamed(t, "diurnal", "exchange", Config{Seed: 3, Epochs: 4})
	if len(rep.Epochs) != 4 {
		t.Errorf("epochs = %d, want 4", len(rep.Epochs))
	}
}

package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/stats"
)

// The clock against the exact optimum (Sections III.C.4 and VI). On small
// seeded markets of the shape the catalog scenarios clear, this measures
// what welfare the clock gives up against Exact at the same reserve, how
// many rounds it takes, what premium its winners keep, and whether each
// side's outcome is fair at its own prices. DESIGN.md, "The clock
// against the exact optimum", holds the measured table; TestClockVsExact
// -v regenerates it.

// The operator's unit costs and the per-unit (CPU, RAM) shapes of the
// catalog's batch-compute and serving-frontend products, as the scenario
// engine values them.
const (
	caseCostCPU = 1.0
	caseCostRAM = 0.25
)

var caseShapes = [...][2]float64{{2, 4}, {1, 8}}

// caseCapacity is one cluster's (CPU, RAM): a single 16-core, 64 GB
// machine, so that 14 buyers contend.
var caseCapacity = [2]float64{16, 64}

// clockCase is one instance: the buyers first, then one operator offer per
// cluster, all settled against reserve.
type clockCase struct {
	reg     *resource.Registry
	bids    []*core.Bid
	buyers  int
	reserve resource.Vector
}

// drawClockCase draws an instance from rng. Two or three regions of two
// clusters each, every cluster a CPU and a RAM pool of caseCapacity.
// Region k runs at utilization 0.78 − 0.6·k/(regions−1), the catalog's
// hot-to-cold skew, jittered ±0.05 per cluster. The reserve is
// ExpSteep(utilization)·cost and the operator offers 80% of each
// cluster's free capacity at a minimal ask, one bid per cluster, as the
// exchange does. Between 2 and maxBuyers pure buyers each want 1–3 units
// of one product, valued at fair cost × (1 + premium) with premium in
// [0.4, 1.8). One in five is a flash-crowd bid pinned to the hottest
// cluster at fair × (2.5 + premium). The rest name a home cluster plus,
// with probability mobility, up to two substitutes elsewhere (XOR width
// ≤ 3).
func drawClockCase(rng *rand.Rand, maxBuyers int) clockCase {
	regions := 2 + rng.Intn(2)
	const perRegion = 2
	var pools []resource.Pool
	var util, cost []float64
	for k := 0; k < regions; k++ {
		u := 0.78 - 0.6*float64(k)/float64(regions-1)
		for j := 0; j < perRegion; j++ {
			cu := u + (rng.Float64()-0.5)*0.1
			name := fmt.Sprintf("r%d-c%d", k+1, j+1)
			pools = append(pools,
				resource.Pool{Cluster: name, Dim: resource.CPU},
				resource.Pool{Cluster: name, Dim: resource.RAM})
			util = append(util, cu, cu)
			cost = append(cost, caseCostCPU, caseCostRAM)
		}
	}
	c := clockCase{reg: resource.NewRegistry(pools...)}
	offer := c.reg.Zero()
	c.reserve = c.reg.Zero()
	for i := range c.reserve {
		c.reserve[i] = reserve.ExpSteep(util[i]) * cost[i]
		offer[i] = 0.8 * (1 - util[i]) * caseCapacity[i%2]
	}
	clusters := len(pools) / 2

	c.buyers = 2 + rng.Intn(maxBuyers-1)
	for u := 0; u < c.buyers; u++ {
		shape := caseShapes[rng.Intn(len(caseShapes))]
		qty := 1 + float64(rng.Intn(3))
		premium, mobility := 0.4+rng.Float64()*1.4, rng.Float64()
		at := []int{rng.Intn(clusters)}
		hot := rng.Intn(5) == 0
		if hot {
			at = []int{0}
		} else if rng.Float64() < mobility {
			for _, alt := range rng.Perm(clusters)[:1+rng.Intn(2)] {
				if alt != at[0] {
					at = append(at, alt)
				}
			}
		}
		// A bundle no offer can hold alone would never win, yet it would
		// price every rival out of its pools first: the catalog's clusters
		// are far larger than one bid, so none is drawn. One unit always
		// fits.
		for _, cl := range at {
			for d := range shape {
				qty = math.Min(qty, math.Max(1, math.Floor(offer[2*cl+d]/shape[d])))
			}
		}
		fair := qty * (shape[0]*caseCostCPU + shape[1]*caseCostRAM)
		limit := fair * (1 + premium)
		if hot {
			limit = fair * (2.5 + premium)
		}
		b := &core.Bid{User: fmt.Sprintf("u%d", u), Limit: limit}
		for _, cl := range at {
			v := c.reg.Zero()
			v[2*cl], v[2*cl+1] = qty*shape[0], qty*shape[1]
			b.Bundles = append(b.Bundles, v)
		}
		c.bids = append(c.bids, b)
	}
	for cl := 0; cl < clusters; cl++ {
		v := c.reg.Zero()
		v[2*cl], v[2*cl+1] = -offer[2*cl], -offer[2*cl+1]
		c.bids = append(c.bids, &core.Bid{User: "operator", Limit: -0.000001, Bundles: []resource.Vector{v}})
	}
	return c
}

// caseOutcome is one instance's measurement under one step rule.
type caseOutcome struct {
	// ratio is the clock's buyer surplus over Exact's, under TotalSurplus
	// at the reserve (1 when Exact's is 0). Both sides accept every
	// operator offer whole, so its constant surplus is left out of both.
	ratio  float64
	rounds int
	// gamma is the median premium core.Premium of the clock's winning
	// buyers, 0 when none won.
	gamma float64
	// clockUnfair is UnfairnessReport's count at the clock's clearing
	// prices.
	clockUnfair int
}

// exactSide is the policy-independent half of an instance: Exact's and
// Greedy's buyer surplus and Exact's unfairness at the reserve.
type exactSide struct {
	welfare, greedyRatio float64
	unfair               int
}

// buyerWelfare is the buyers' TotalSurplus of an allocation at the reserve.
func (c clockCase) buyerWelfare(t testing.TB, chosen []int) float64 {
	t.Helper()
	w, err := EvaluateWelfare(c.bids[:c.buyers], chosen[:c.buyers], c.reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// solveExact runs Exact and Greedy on the instance.
func (c clockCase) solveExact(t testing.TB) exactSide {
	t.Helper()
	ex, err := Exact(c.reg, c.bids, c.reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	for i := c.buyers; i < len(c.bids); i++ {
		if ex.ChosenBundle[i] != 0 {
			t.Fatalf("Exact declined operator offer %d", i)
		}
	}
	gr, err := Greedy(c.reg, c.bids, c.reserve, TotalSurplus)
	if err != nil {
		t.Fatal(err)
	}
	s := exactSide{welfare: c.buyerWelfare(t, ex.ChosenBundle), unfair: UnfairnessReport(c.bids, ex, c.reserve)}
	s.greedyRatio = ratio(c.buyerWelfare(t, gr.ChosenBundle), s.welfare)
	return s
}

func ratio(clock, exact float64) float64 {
	if exact <= 0 {
		return 1
	}
	return clock / exact
}

// runClock clears the instance on the clock under cfg's step rule, at
// the reserve, and checks what the clock guarantees by construction: the
// outcome is a feasible point of SYSTEM, and fair at its own prices.
func (c clockCase) runClock(t testing.TB, cfg core.Config, ex exactSide) caseOutcome {
	t.Helper()
	cfg.Start = c.reserve
	a, err := core.NewAuction(c.reg, c.bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("clock: %v", err)
	}
	for _, v := range core.CheckSystem(c.bids, res, 1e-9) {
		t.Errorf("clock outcome: %v", v)
	}
	out := caseOutcome{
		ratio:       ratio(c.buyerWelfare(t, res.ChosenBundle), ex.welfare),
		rounds:      res.Rounds,
		clockUnfair: UnfairnessReport(c.bids, &Result{ChosenBundle: res.ChosenBundle, Payments: res.Payments}, res.Prices),
	}
	if out.clockUnfair != 0 {
		t.Errorf("clock outcome unfair at its clearing prices: %d violations", out.clockUnfair)
	}
	var gammas []float64
	for i := 0; i < c.buyers; i++ {
		if b := res.ChosenBundle[i]; b >= 0 {
			gammas = append(gammas, core.Premium(c.bids[i].LimitFor(b), res.Payments[i]))
		}
	}
	if len(gammas) > 0 {
		out.gamma = stats.Median(gammas)
	}
	return out
}

// What the production step rule measured on drawClockCase(·, 14). The
// floor is the lowest welfare ratio over 20 000 seeds: 0, because a step
// that prices two close rivals out of a pool in the same round sells it
// to nobody. So an instance is held only to the floor and to Exact's
// optimum above it; what shows whether welfare got worse is the p10 of
// TestClockVsExact's seeded population, allowed welfareMargin below the
// measured p10.
const (
	welfareFloor  = 0.0
	welfareP10    = 0.856
	welfareMargin = 0.05
)

// checkWelfare gates one production-rule outcome: its ratio lies between
// the floor and Exact's optimum.
func checkWelfare(t testing.TB, o caseOutcome) {
	t.Helper()
	if o.ratio < welfareFloor || o.ratio > 1+1e-9 {
		t.Errorf("clock welfare ratio %.4f outside [%g, 1]", o.ratio, welfareFloor)
	}
}

// clockVsExactSeeds is the measured population.
const clockVsExactSeeds = 200

// TestClockVsExact measures the clock against Exact on clockVsExactSeeds
// seeded instances, under the Capped grid α ∈ {0.01, 0.02, 0.05} ×
// δ ∈ {0.1, 0.25, 0.5}, MinStep as in production. Every outcome must pass
// CheckSystem and be fair at its clearing prices. The production rule's
// must also pass checkWelfare, with a p10 no lower than welfareP10 −
// welfareMargin. With -v it prints the table DESIGN.md quotes:
//
//	go test -run 'TestClockVsExact$' -v ./internal/optimize
func TestClockVsExact(t *testing.T) {
	cases := make([]clockCase, clockVsExactSeeds)
	exact := make([]exactSide, clockVsExactSeeds)
	var greedy []float64
	exactUnfair := 0
	for s := range cases {
		cases[s] = drawClockCase(rand.New(rand.NewSource(int64(s))), 14)
		exact[s] = cases[s].solveExact(t)
		greedy = append(greedy, exact[s].greedyRatio)
		if exact[s].unfair > 0 {
			exactUnfair++
		}
	}
	var table strings.Builder
	table.WriteString("| step rule | welfare ratio min / p10 / median | rounds median / max | median γ p10 / median | unfair clock |\n")
	table.WriteString("|---|---|---|---|---|\n")
	def := core.DefaultPolicy()
	for _, alpha := range []float64{0.01, 0.02, 0.05} {
		for _, delta := range []float64{0.1, 0.25, 0.5} {
			p := core.Capped{Alpha: alpha, Delta: delta, MinStep: def.MinStep}
			var ratios, gammas, rounds []float64
			unfair := 0
			for s, c := range cases {
				o := c.runClock(t, core.Config{Policy: p}, exact[s])
				if p == def {
					checkWelfare(t, o)
				}
				ratios, gammas, rounds = append(ratios, o.ratio), append(gammas, o.gamma), append(rounds, float64(o.rounds))
				if o.clockUnfair > 0 {
					unfair++
				}
			}
			name := fmt.Sprintf("Capped α=%g δ=%g", alpha, delta)
			if p == def {
				name += " (production)"
				if p10 := stats.Quantile(ratios, 0.1); p10 < welfareP10-welfareMargin {
					t.Errorf("production welfare ratio p10 %.3f below %.3f − %.3f", p10, welfareP10, welfareMargin)
				}
			}
			fmt.Fprintf(&table, "| %s | %s | %.0f / %.0f | %.3f / %.3f | %d |\n", name, distribution(ratios),
				stats.Median(rounds), stats.Quantile(rounds, 1), stats.Quantile(gammas, 0.1), stats.Median(gammas), unfair)
		}
	}
	fmt.Fprintf(&table, "| Greedy (at the reserve) | %s | — | — | — |\n", distribution(greedy))
	t.Logf("clock vs Exact over %d instances; Exact's allocation is unfair at the reserve on %d of them\n%s",
		len(cases), exactUnfair, table.String())
}

// distribution renders min / p10 / median.
func distribution(xs []float64) string {
	return fmt.Sprintf("%.3f / %.3f / %.3f", stats.Quantile(xs, 0), stats.Quantile(xs, 0.1), stats.Median(xs))
}

// FuzzClockVsExact explores instances beyond the seeded population: each
// input seeds drawClockCase, and the production clock's outcome must pass
// CheckSystem, be fair at its clearing prices and pass checkWelfare.
func FuzzClockVsExact(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := drawClockCase(rand.New(rand.NewSource(seed)), 14)
		checkWelfare(t, c.runClock(t, core.Config{}, c.solveExact(t)))
	})
}

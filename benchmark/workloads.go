package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// runCfg is what a repetition is given: the workload seed, the number of
// submitter goroutines (or connections), and a size multiplier. Scale 1
// is the stated size; the smoke test runs at 1/50.
type runCfg struct {
	seed    int64
	workers int
	scale   float64
}

func (c runCfg) sized(base int) int {
	n := int(math.Round(float64(base) * c.scale))
	if n < 2 {
		n = 2
	}
	return n
}

// repResult is one repetition's numbers. A metric the workload does not
// define is absent, never zero.
type repResult struct {
	e2e   map[string]float64
	layer map[string]float64
	// n is the sample count behind a percentile or median, by metric name.
	n map[string]int
	// tickMs are the per-epoch tick times, pooled across repetitions for
	// epoch_p90_ms.
	tickMs            []float64
	attempted, failed int
	// shape holds the workload characteristics the guards check.
	shape map[string]float64
	// won and lost must repeat exactly across repetitions of one seed on
	// the closed-loop in-memory workloads.
	won, lost uint64
	// cycle is the repetition's median unit of work (epoch cycle, or HTTP
	// submit latency) in seconds: traced ÷ untraced of it is the tracing
	// overhead.
	cycle float64
	// wall is the timed window in seconds.
	wall  float64
	spans []span
}

func newRep() *repResult {
	return &repResult{e2e: map[string]float64{}, layer: map[string]float64{}, n: map[string]int{}, shape: map[string]float64{}}
}

// workload is one benchmark workload. rep builds a fresh world, runs one
// repetition and checks its outputs.
type workload struct {
	name string
	// single workloads run one repetition sized by the measuring window
	// (scale = seconds/10); the others repeat a fixed-size repetition in
	// fresh worlds until the window is used.
	single bool
	// exact workloads must repeat their won/lost counts exactly.
	exact bool
	rep   func(c runCfg, rec *recorder) (*repResult, error)
	bands []band
}

var workloads = []workload{
	{name: "mem-planet", exact: true, rep: memPlanetRep, bands: []band{
		{"won_share", 0.20, 0.34}, {"open_left", 0, 0}, {"noconv_share", 0, 0},
		{"rounds_per_epoch", 20, 400}, {"core.replay_match", 1, 1}}},
	{name: "durable-planet", single: true, rep: durablePlanetRep, bands: []band{
		{"won_share", 0.20, 0.34}, {"open_left", 0, 0}, {"noconv_share", 0, 0},
		{"core.replay_match", 1, 1}, {"flushes_per_order", 1.9, 2.2}, {"journal.snapshots", 1, 2}}},
	{name: "fed-planet", rep: fedPlanetRep, bands: []band{
		{"won_share", 0.45, 0.85}, {"open_left", 0, 0}, {"failovers_per_order", 1.2, 2.4},
		{"cross_region_share", 1, 1}}},
	{name: "clock-sparse", exact: true, rep: clockSparseRep, bands: []band{
		{"won_share", 0.08, 0.20}, {"open_left", 0, 0}, {"noconv_share", 0, 0},
		{"rounds_per_epoch", 1500, 6000}, {"core.replay_match", 1, 1}, {"core.components", 8, 8}}},
	{name: "http-mixed", single: true, rep: httpMixedRep, bands: []band{
		{"won_share", 0.03, 0.30}, {"open_left", 0, 0}, {"submit_share", 0.78, 0.82}}},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// band is a characteristic guard: the workload's shape value must lie in
// [lo, hi], or the workload has stopped exercising its layer and its
// numbers mean something else. A value the pass does not measure (the
// replay runs only when traced) is not checked.
type band struct {
	name   string
	lo, hi float64
}

func checkBands(w *workload, shape map[string]float64) []string {
	var out []string
	for _, b := range w.bands {
		v, ok := shape[b.name]
		if !ok {
			continue
		}
		if v < b.lo || v > b.hi || math.IsNaN(v) {
			out = append(out, fmt.Sprintf("%s: %s = %.4g outside [%g, %g]", w.name, b.name, v, b.lo, b.hi))
		}
	}
	return out
}

// setups builds the world n times and reports the median build time, so
// that one slow page fault does not stand for the set-up cost. All but
// the last world are torn down at once.
func setups[T any](n int, build func() (T, func(), error)) (world T, cleanup func(), setup time.Duration, err error) {
	var times []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		world, cleanup, err = build()
		if err != nil {
			return world, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(time.Since(t)))
		if i < n-1 {
			cleanup()
		}
	}
	return world, cleanup, time.Duration(median(times)), nil
}

const setupBuilds = 25

// Stated sizes of the repeated workloads: epochs per repetition. A
// repetition takes 2.5–3 s on the two-core sandbox, so three or four fit
// the 10 s window.
const (
	memEpochs    = 200
	fedEpochs    = 150
	sparseEpochs = 35
)

// drain attaches the traced pass's one firehose subscriber and returns a
// function that detaches it and reports how many events it lost.
func drain(fire *telemetry.Firehose, rec *recorder) (stop func() (dropped uint64)) {
	if rec == nil {
		return func() uint64 { return 0 }
	}
	// Room for a whole epoch's events, so the subscriber falling behind a
	// settlement burst is a measured drop, not a certain one.
	sub := fire.Subscribe(1 << 14)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range sub.C {
		}
	}()
	return func() uint64 {
		sub.Close() // idempotent, so stop may be deferred and called
		wg.Wait()
		return sub.Dropped()
	}
}

// closedMetrics turns a closed loop's samples into the metrics every
// closed-loop workload shares.
func closedMetrics(r *repResult, c *closedLoop, s *loopSamples, setup time.Duration) {
	cycles := durs(s.cycles, time.Second)
	r.cycle = median(cycles)
	submits := durs(s.submits, time.Microsecond)
	ticks := durs(s.ticks, time.Millisecond)
	r.tickMs = ticks
	r.attempted, r.failed = s.attempted, s.failed
	r.wall = s.wall.Seconds()

	r.e2e["setup_s"] = setup.Seconds()
	r.e2e["orders_per_s"] = float64(c.batch) / r.cycle
	r.n["orders_per_s"] = len(cycles)
	r.e2e["submit_p50_us"] = quantile(submits, 0.5)
	r.n["submit_p50_us"] = len(submits)
	r.e2e["epoch_p50_ms"] = median(ticks)
	r.n["epoch_p50_ms"] = len(ticks)
	r.e2e["cpu_s_per_korder"] = s.cpu / float64(s.attempted) * 1000
	r.e2e["fail_share"] = float64(s.failed) / float64(s.attempted)

	r.layer[c.submitSpan+".p50_us"] = quantile(submits, 0.5)
	r.layer[c.tickSpan+".p50_ms"] = median(ticks)
	if c.ex != nil {
		r.layer["market.submit.calls"] = float64(len(submits))
		r.layer["market.submit.busy_s"] = sumDur(s.submits).Seconds()
		if supported(len(submits), 0.99) {
			r.layer["market.submit.p99_us"] = quantile(submits, 0.99)
			r.n["market.submit.p99_us"] = len(submits)
		}
		r.layer["market.run_auction.calls"] = float64(len(ticks))
		r.layer["market.run_auction.busy_s"] = sumDur(s.ticks).Seconds()
	}
	r.layer["market.noconv_epochs"] = float64(s.noConvergence)
	r.layer["runtime.whole_run_orders_per_s"] = float64(s.attempted) / s.wall.Seconds()
	r.shape["noconv_share"] = float64(s.noConvergence) / float64(len(ticks))
	if len(s.rounds) > 0 {
		r.layer["core.rounds_per_epoch"] = median(s.rounds)
		r.shape["rounds_per_epoch"] = median(s.rounds)
	}

	if p := &s.replay; p.epochs > 0 {
		r.layer["core.new_auction.p50_ms"] = median(durs(p.newAuction, time.Millisecond))
		r.layer["core.run.p50_ms"] = median(durs(p.run, time.Millisecond))
		r.layer["core.components"] = median(p.components)
		r.layer["core.bids_per_epoch"] = median(p.bids)
		r.layer["core.replay_match"] = float64(p.matched) / float64(p.epochs)
		if rounds := median(p.rounds); rounds > 0 {
			r.layer["core.ns_per_round"] = r.layer["core.run.p50_ms"] * 1e6 / rounds
		}
		r.shape["core.replay_match"] = r.layer["core.replay_match"]
		r.shape["core.components"] = r.layer["core.components"]
		r.layer["market.open_orders.p50_ms"] = median(durs(s.openOrders, time.Millisecond))
		r.layer["market.reserve_prices.p50_us"] = median(durs(s.reserve, time.Microsecond))
		r.layer["market.preliminary_prices.p50_ms"] = median(durs(s.prelim, time.Millisecond))
		r.layer["market.orders_tail.p50_us"] = median(durs(s.ordersTail, time.Microsecond))
	}
}

// exchangeMetrics reads the exchange's own counters after the loop, runs
// the invariant kernel, and measures the live heap with the book still
// referenced.
func exchangeMetrics(r *repResult, ex *market.Exchange) error {
	m := ex.Metrics()
	r.won, r.lost = m.Won, m.Lost
	r.layer["market.submit.rejected"] = float64(m.Rejected)
	if m.Submitted > 0 {
		r.layer["market.won_share"] = float64(m.Won) / float64(m.Submitted)
		r.shape["won_share"] = r.layer["market.won_share"]
	}
	r.shape["open_left"] = float64(ex.OpenOrderCount())
	if vs := invariant.CheckExchange(ex); len(vs) > 0 {
		return fmt.Errorf("invariant kernel: %d violations, first: %s", len(vs), vs[0])
	}
	r.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(ex)
	return nil
}

func telemetryMetrics(r *repResult, fire *telemetry.Firehose, dropped uint64) {
	r.layer["telemetry.published"] = float64(fire.Published())
	r.layer["telemetry.dropped"] = float64(dropped)
	if r.attempted > 0 {
		r.layer["telemetry.events_per_order"] = float64(fire.Published()) / float64(r.attempted)
	}
}

// traceMetrics derives the span-based layer numbers of a closed-loop
// repetition. The settlement's self time is, per epoch, the tick minus the
// journal's file calls inside it (its child spans) minus the clock stages
// as replayed just before it. trace.layer_sum_share adds the layers'
// medians and divides by the median cycle: medians need not add up, so a
// share near 1 says the replay times what the tick runs and nothing else
// of size hides in the cycle.
func traceMetrics(r *repResult, c *closedLoop, rec *recorder, s *loopSamples) {
	if rec == nil {
		return
	}
	r.spans = rec.all()
	if s.replay.epochs == 0 {
		return
	}
	self := selfTimes(r.spans)
	var settle, files []float64
	for i, sp := range r.spans {
		if sp.Name != c.tickSpan {
			continue
		}
		e := sp.Epoch
		clock := s.replay.assemble[e] + s.replay.newAuction[e] + s.replay.run[e]
		settle = append(settle, math.Max(0, float64(self[i]-clock))/float64(time.Millisecond))
		files = append(files, float64(time.Duration(sp.End-sp.Start)-self[i])/float64(time.Millisecond))
	}
	r.layer["market.settle.self_p50_ms"] = median(settle)
	ms := func(ds []time.Duration) float64 { return median(durs(ds, time.Millisecond)) }
	sum := ms(s.submitPhases) + ms(s.replay.assemble) + ms(s.replay.newAuction) + ms(s.replay.run) + median(settle) + median(files)
	r.layer["trace.layer_sum_share"] = sum / (r.cycle * 1e3)
}

func memPlanetRep(c runCfg, rec *recorder) (*repResult, error) {
	fire := telemetry.NewFirehose()
	ex, cleanup, setup, err := setups(setupBuilds, func() (*market.Exchange, func(), error) {
		ex, err := planetExchange(market.Config{InitialBudget: planetBudget, Telemetry: fire})
		return ex, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cl, err := planetLoop(c, ex, c.sized(memEpochs))
	if err != nil {
		return nil, err
	}
	return exchangeRep(c, rec, ex, fire, setup, cl)
}

// planetExchange is one exchange over the whole planet with the sixteen
// teams funded.
func planetExchange(cfg market.Config) (*market.Exchange, error) {
	fleet, err := planetFleet(0, 1)
	if err != nil {
		return nil, err
	}
	ex, err := market.NewExchange(fleet, cfg)
	if err != nil {
		return nil, err
	}
	return ex, openAccounts(ex.OpenAccount)
}

// exchangeRep drives one exchange through cl, whose traffic (epochs,
// batch, workers, gen) and tick the caller has set; the submit path, the
// span names and the replay are the same for every single-exchange
// workload.
func exchangeRep(c runCfg, rec *recorder, ex *market.Exchange, fire *telemetry.Firehose, setup time.Duration, cl *closedLoop) (*repResult, error) {
	cl.seed, cl.ex = c.seed, ex
	cl.submit = func(o *order) error {
		_, err := ex.SubmitProduct(o.team, planetProduct, o.qty, o.clusters, o.limit)
		return err
	}
	cl.submitSpan, cl.tickSpan = "market.submit", "market.run_auction"
	stop := drain(fire, rec)
	s, err := cl.run(rec)
	dropped := stop()
	if err != nil {
		return nil, err
	}
	r := newRep()
	closedMetrics(r, cl, s, setup)
	traceMetrics(r, cl, rec, s)
	telemetryMetrics(r, fire, dropped)
	return r, exchangeMetrics(r, ex)
}

// planetLoop is the planet traffic settled by Loop.Tick: mem-planet, and
// durable-planet's submit-and-settle part.
func planetLoop(c runCfg, ex *market.Exchange, epochs int) (*closedLoop, error) {
	loop, err := market.NewLoop(ex, time.Second)
	if err != nil {
		return nil, err
	}
	return &closedLoop{epochs: epochs, batch: planetBatch, workers: c.workers, gen: planetOrders,
		tick: func(int) (*market.AuctionRecord, error) { return loop.Tick() }}, nil
}

const fedRegions = 4

func fedPlanetRep(c runCfg, rec *recorder) (*repResult, error) {
	fire := telemetry.NewFirehose()
	fed, cleanup, setup, err := setups(setupBuilds, func() (*federation.Federation, func(), error) {
		rs := make([]*federation.Region, fedRegions)
		for i := range rs {
			fleet, err := planetFleet(i, fedRegions)
			if err != nil {
				return nil, nil, err
			}
			rs[i], err = federation.NewRegion("fr"+strconv.Itoa(i), fleet, market.Config{InitialBudget: planetBudget, Telemetry: fire})
			if err != nil {
				return nil, nil, err
			}
		}
		fed, err := federation.NewFederation(rs...)
		if err != nil {
			return nil, nil, err
		}
		fed.AttachTelemetry(fire)
		return fed, func() {}, openAccounts(fed.OpenAccount)
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()

	stop := drain(fire, rec)
	var settleRegion, settleShare []float64
	tickErr := func(ticks []federation.RegionTick) error {
		for _, t := range ticks {
			if t.Err != nil {
				return fmt.Errorf("region %s: %w", t.Region, t.Err)
			}
		}
		return nil
	}
	cl := &closedLoop{
		epochs: c.sized(fedEpochs), batch: planetBatch, workers: c.workers, seed: c.seed,
		gen: planetOrders,
		submit: func(o *order) error {
			_, err := fed.SubmitProduct(o.team, planetProduct, o.qty, o.clusters, o.limit)
			return err
		},
		submitSpan: "federation.submit",
		tick: func(epoch int) (*market.AuctionRecord, error) {
			if rec == nil || epoch%10 != 9 {
				return nil, tickErr(fed.Tick())
			}
			// Every tenth traced epoch settles the regions one after the
			// other, so that each region's own time can be seen: Tick runs
			// them concurrently and only shows the slowest.
			var sum, slowest float64
			for _, reg := range fed.Regions() {
				t := time.Now()
				if _, err := fed.SettleRegion(reg.Name()); err != nil && !errors.Is(err, market.ErrNoOpenOrders) {
					return nil, fmt.Errorf("region %s: %w", reg.Name(), err)
				}
				d := float64(time.Since(t)) / float64(time.Millisecond)
				settleRegion = append(settleRegion, d)
				sum += d
				slowest = math.Max(slowest, d)
			}
			settleShare = append(settleShare, slowest/sum)
			return nil, nil
		},
		tickSpan: "federation.tick",
	}
	s, err := cl.run(rec)
	if err == nil {
		// Failover legs still in regional books settle on extra ticks,
		// outside the per-cycle samples.
		for i := 0; err == nil && openAcross(fed) > 0; i++ {
			if i >= 1000 {
				err = fmt.Errorf("books did not drain in %d extra ticks", i)
				break
			}
			err = tickErr(fed.Tick())
		}
	}
	dropped := stop()
	if err != nil {
		return nil, err
	}

	r := newRep()
	closedMetrics(r, cl, s, setup)
	traceMetrics(r, cl, rec, s)
	telemetryMetrics(r, fire, dropped)
	if len(settleRegion) > 0 {
		r.layer["federation.settle_region.p50_ms"] = median(settleRegion)
		r.layer["federation.settle_region.max_share"] = median(settleShare)
	}
	st := fed.Stats()
	r.won, r.lost = uint64(st.Won), uint64(st.Lost)
	if st.Submitted > 0 {
		r.layer["federation.failovers_per_order"] = float64(st.Failovers) / float64(st.Submitted)
		r.layer["federation.cross_region_share"] = float64(st.CrossRegion) / float64(st.Submitted)
		r.layer["market.won_share"] = float64(st.Won) / float64(st.Submitted)
		r.shape["failovers_per_order"] = r.layer["federation.failovers_per_order"]
		r.shape["cross_region_share"] = r.layer["federation.cross_region_share"]
		r.shape["won_share"] = r.layer["market.won_share"]
	}
	var rounds, auctions uint64
	for _, reg := range fed.Regions() {
		m := reg.Exchange().Metrics()
		rounds += m.Rounds
		auctions += m.Auctions
		r.layer["market.noconv_epochs"] += float64(m.NoConvergence)
		r.layer["market.submit.rejected"] += float64(m.Rejected)
	}
	if auctions > 0 {
		r.layer["core.rounds_per_epoch"] = float64(rounds) / float64(auctions)
	}
	r.shape["open_left"] = float64(openAcross(fed))
	if vs := invariant.CheckFederation(fed); len(vs) > 0 {
		return nil, fmt.Errorf("invariant kernel: %d violations, first: %s", len(vs), vs[0])
	}
	r.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(fed)
	return r, nil
}

func openAcross(fed *federation.Federation) int {
	n := 0
	for _, r := range fed.Regions() {
		n += r.Exchange().OpenOrderCount()
	}
	return n
}

// clock-sparse: eight regions of eight one-machine clusters on one
// exchange. Orders never name clusters of two regions, so the bidder–pool
// graph has eight connected components and the clock is nearly all of the
// tick.
const (
	sparseRegions  = 8
	sparseClusters = 8
	sparseBatch    = 4096
)

func sparseCluster(region, c int) string { return "r" + strconv.Itoa(region) + "c" + strconv.Itoa(c) }

// sparseOrders fills buf with one epoch: 15 in 16 orders want 1–4 workers
// in any of 1–3 clusters of one region at a limit of 5..64; 1 in 16 is a
// hot contender on its region's cluster 0 with a limit of 200..599, which
// keeps that cluster's clock climbing long after the others have cleared.
func sparseOrders(rng *rand.Rand, buf []order) {
	for i := range buf {
		region := rng.Intn(sparseRegions)
		o := order{team: teamName(rng.Intn(planetTeams)), qty: float64(1 + rng.Intn(4))}
		if i%16 == 15 {
			o.clusters = []string{sparseCluster(region, 0)}
			o.limit = float64(200 + rng.Intn(400))
		} else {
			k := 1 + rng.Intn(3)
			first := rng.Intn(sparseClusters)
			for j := 0; j < k; j++ {
				o.clusters = append(o.clusters, sparseCluster(region, (first+j)%sparseClusters))
			}
			o.limit = float64(5 + rng.Intn(60))
		}
		buf[i] = o
	}
}

func clockSparseRep(c runCfg, rec *recorder) (*repResult, error) {
	fire := telemetry.NewFirehose()
	ex, cleanup, setup, err := setups(setupBuilds, func() (*market.Exchange, func(), error) {
		fleet := cluster.NewFleet()
		for reg := 0; reg < sparseRegions; reg++ {
			for k := 0; k < sparseClusters; k++ {
				cl := cluster.New(sparseCluster(reg, k), nil)
				cl.AddMachines(1, machineShape)
				if err := fleet.AddCluster(cl); err != nil {
					return nil, nil, err
				}
			}
		}
		ex, err := market.NewExchange(fleet, market.Config{InitialBudget: planetBudget, Telemetry: fire})
		if err != nil {
			return nil, nil, err
		}
		return ex, func() {}, openAccounts(ex.OpenAccount)
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()

	return exchangeRep(c, rec, ex, fire, setup, &closedLoop{
		epochs: c.sized(sparseEpochs), batch: sparseBatch, workers: 1, gen: sparseOrders,
		tick: func(int) (*market.AuctionRecord, error) {
			ar, _, err := ex.RunAuction()
			return ar, err
		}})
}

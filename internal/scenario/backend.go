// Package scenario is the planet-scale scenario engine: a deterministic,
// seed-reproducible multi-epoch driver that pushes a
// federation.Federation — one planet-wide market, or one market per
// region — through scripted event timelines — diurnal demand waves,
// flash crowds on hot pools, bidder churn with budget refresh cycles,
// regions going dark and rejoining, adaptive bidders that shade their
// premiums from past results (reproducing the Table I learning curve),
// and clock non-convergence storms from hostile trader mixes — and runs
// the shared invariant kernel (internal/invariant) after every epoch.
//
// The paper's Section V evidence is longitudinal: premiums fall and
// prices track congestion only across successive auctions with
// persistent accounts (Table I, Figures 6–7). The engine is the
// repository's one world model: the paper-pilot scenario's teams also
// sell, and the paper's figures are views of its Report (figures.go).
// See the Catalog for the named scenarios and DESIGN.md, "Adding a
// scenario", for how to add one.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/fault"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// Backend is the market under test: a federation.Federation behind one
// fixed topology. Scenario regions are named r1…rN, each owning
// ClustersOf(region) clusters named rK-cJ, so a scenario's event timeline
// (which region is dark, where the flash crowd lands) is the same on both
// kinds. The kinds differ only in how regions map onto markets:
//
//   - "exchange": one market, named planet, holds every cluster behind one
//     order book and one clock; regions are groupings of its clusters.
//   - "federation": one autonomous market per region, behind the
//     price-board router.
//
// A Backend is not safe for concurrent use: the engine is deliberately
// single-threaded so same-seed runs are bit-identical. Concurrency is
// soaked separately by the -race stress tests.
type Backend struct {
	kind string
	fed  *federation.Federation
	// markets names the federation's markets in registration order.
	markets  []string
	regions  []string
	clusters map[string][]string            // region → clusters
	owner    map[string]string              // cluster → region
	seen     map[string]int                 // market → auction records already reported
	placed   map[string][]market.PlacedTask // region → placed tasks, oldest first
	// cfg backs CrashRecover's deterministic rebuild.
	cfg Config
}

// planetMarket names the exchange kind's one market. It is no scenario
// region, so region-scoped fault windows and dark-region sets never
// reach it.
const planetMarket = "planet"

// NewBackend builds the named backend kind ("exchange" or "federation")
// for the config.
func NewBackend(kind string, cfg Config) (*Backend, error) {
	if kind != "exchange" && kind != "federation" {
		return nil, fmt.Errorf("scenario: unknown backend %q (want exchange or federation)", kind)
	}
	b := &Backend{
		kind:     kind,
		clusters: make(map[string][]string),
		owner:    make(map[string]string),
		seen:     make(map[string]int),
		placed:   make(map[string][]market.PlacedTask),
	}
	for k := 0; k < numRegions; k++ {
		rn := regionName(k)
		b.regions = append(b.regions, rn)
		for j := 0; j < clustersPerRegion; j++ {
			cn := clusterName(rn, j)
			b.clusters[rn] = append(b.clusters[rn], cn)
			b.owner[cn] = rn
		}
	}
	b.markets = b.regions
	if kind == "exchange" {
		b.markets = []string{planetMarket}
	}
	if err := b.open(cfg, false); err != nil {
		return nil, err
	}
	b.cfg = cfg
	return b, nil
}

// regionName and clusterName fix the shared topology naming.
func regionName(k int) string                 { return fmt.Sprintf("r%d", k+1) }
func clusterName(region string, j int) string { return fmt.Sprintf("%s-c%d", region, j+1) }

// buildFleet assembles one region's clusters, utilization-skewed by the
// seeded rng so every region starts with a distinct hot/cold profile.
func buildFleet(rng *rand.Rand, region string, util float64) (*cluster.Fleet, error) {
	fleet := cluster.NewFleet()
	for j := 0; j < clustersPerRegion; j++ {
		cn := clusterName(region, j)
		c := cluster.New(cn, nil)
		c.UnitCost = cluster.OperatorUnitCost
		c.AddMachines(machinesPerCluster, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			return nil, err
		}
		if err := fleet.FillToUtilization(rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// regionUtil picks region k's starting utilization: r1 hot, the rest
// cooling linearly — the skew the paper's Figure 6 worlds start from.
func regionUtil(k int) float64 {
	return 0.78 - float64(0.6*float64(k)/float64(numRegions-1)) // rounded before the add (make fma-check)
}

// fleets builds each market's fleet, in market order, drawing every
// region in region order from one rng seeded by cfg.Seed, so a recovering
// backend rebuilds the fleets it crashed with. The federation kind keeps each
// region's fleet exactly as buildFleet returned it: a fleet numbers the
// tasks it places, so moving a region's clusters into a fresh fleet would
// renumber every placement. The exchange kind merges every region into
// one fleet.
func (b *Backend) fleets(cfg Config) ([]*cluster.Fleet, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*cluster.Fleet
	for k, rn := range b.regions {
		rf, err := buildFleet(rng, rn, regionUtil(k))
		if err != nil {
			return nil, err
		}
		if b.kind == "federation" {
			out = append(out, rf)
			continue
		}
		if out == nil {
			out = []*cluster.Fleet{cluster.NewFleet()}
		}
		for _, cn := range rf.ClusterNames() {
			if err := out[0].AddCluster(rf.Cluster(cn)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func marketConfig(cfg Config) market.Config {
	return market.Config{
		InitialBudget: initialBudget,
		MaxRounds:     maxRounds,
		SnapshotEvery: snapshotEvery,
		Telemetry:     cfg.Telemetry,
	}
}

// faultFS wires the config's injector under a journal's filesystem; a
// nil injector selects the real filesystem.
func faultFS(cfg Config) journal.FS {
	if cfg.Injector == nil {
		return nil
	}
	return fault.NewFS(cfg.Injector, nil)
}

// faultRetries bounds the backend-level retry loops: an injected fault
// deep enough to outlast the region seams' single shot or the journals'
// bounded inline retries (chaos schedules, hostile unit tests) fails the
// operation, and the backend replays it, which the entry-point fault
// seams and the journal's rollback keep side-effect-free on failure.
const faultRetries = 8

// retryFaults runs op and, while it fails with an injected fault, replays
// it, at most faultRetries times.
func retryFaults(op func() error) error {
	err := op()
	for attempt := 0; attempt < faultRetries && errors.Is(err, fault.ErrInjected); attempt++ {
		err = op()
	}
	return err
}

// open assembles the markets behind one router through federation.Open:
// the same fleets from the same seed and, under cfg.JournalDir, one
// journal a market plus the router's. A fresh build refuses a directory
// that already holds them, since recovery goes only through
// CrashRecover; a recovering one runs the invariant kernel before
// serving resumes.
func (b *Backend) open(cfg Config, recovering bool) error {
	fleets, err := b.fleets(cfg)
	if err != nil {
		return err
	}
	members := make([]federation.Member, len(b.markets))
	for i, name := range b.markets {
		members[i] = federation.Member{Name: name, Fleet: fleets[i]}
	}
	fed, op, err := federation.Open(cfg.JournalDir, journal.Options{FS: faultFS(cfg)}, marketConfig(cfg), members...)
	if err != nil {
		return err
	}
	switch {
	case op.Recovered && !recovering:
		err = fmt.Errorf("scenario: journal dir %s already holds a journal", cfg.JournalDir)
	case recovering:
		if vs := invariant.CheckFederation(fed); len(vs) > 0 {
			err = fmt.Errorf("scenario: recovered federation fails invariants: %s", vs[0])
		}
	}
	if err != nil {
		fed.Close()
		return err
	}
	// Open attached the router to the markets' firehose; it rejoins the
	// fault seam here, which a partition may still be arming.
	fed.AttachFaults(cfg.Injector)
	b.fed = fed
	return nil
}

// CrashRecover kills the backend's journals without flushing (the
// scripted power loss) and rebuilds the whole market from disk:
// deterministic fleet reconstruction, snapshot load, WAL replay, and the
// invariant kernel before serving resumes. It errors on an un-journaled
// backend.
func (b *Backend) CrashRecover() error {
	if b.cfg.JournalDir == "" {
		return errors.New("scenario: backend has no journal to recover from")
	}
	for _, r := range b.fed.Regions() {
		r.Exchange().Journal().Crash()
	}
	b.fed.Journal().Crash()
	if err := b.open(b.cfg, true); err != nil {
		return err
	}
	// The placed lists come back from the recovered markets' own fleet
	// deltas, in original placement order (EvictFraction depends on it).
	b.placed = make(map[string][]market.PlacedTask)
	for _, m := range b.markets {
		b.track(b.fed.Region(m).Exchange().PlacedTasks())
	}
	return nil
}

// Close releases the backend's journals (and their directory locks).
func (b *Backend) Close() error { return b.fed.Close() }

// Kind names the backend ("exchange" or "federation").
func (b *Backend) Kind() string { return b.kind }

// Regions lists the scenario regions in fixed order.
func (b *Backend) Regions() []string { return b.regions }

// ClustersOf lists a region's cluster names in fixed order.
func (b *Backend) ClustersOf(region string) []string { return b.clusters[region] }

// marketOf returns the exchange of the market holding the cluster, or
// nil.
func (b *Backend) marketOf(clusterName string) *market.Exchange {
	r := b.fed.Region(b.fed.RegionOf(clusterName))
	if r == nil {
		return nil
	}
	return r.Exchange()
}

// exchangeOf returns the exchange of the market holding the region's
// clusters, or nil for an unknown region.
func (b *Backend) exchangeOf(region string) *market.Exchange {
	cs := b.clusters[region]
	if len(cs) == 0 {
		return nil
	}
	return b.marketOf(cs[0])
}

// RegistryFor returns the pool registry of the market holding the
// cluster.
func (b *Backend) RegistryFor(clusterName string) *resource.Registry {
	ex := b.marketOf(clusterName)
	if ex == nil {
		return nil
	}
	return ex.Registry()
}

// OpenAccount creates a team account in every market.
func (b *Backend) OpenAccount(team string) error { return b.fed.OpenAccount(team) }

// SubmitProduct routes one product order and returns its router ID.
func (b *Backend) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (int, error) {
	var id int
	// The router's fault seam fails routing before any state moves, and a
	// market's submit whose journal write fails rolls its stripe slot
	// back, so the replayed call is operation-identical — which is what
	// lets a partition that heals leave no fingerprint.
	err := retryFaults(func() (err error) {
		id, err = b.fed.SubmitProduct(team, product, qty, clusters, limit)
		return err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// SubmitBid books a raw clock bid into the market holding the cluster —
// the path scenarios use to inject hostile trader mixes the product
// catalog cannot express. Region-local traffic legitimately enters
// through the market's book; settlement still goes through SettleRegion
// so the router gossips. It returns the market's order ID, usable only
// with CancelBid against the same cluster.
func (b *Backend) SubmitBid(clusterName, team string, bid *core.Bid) (int, error) {
	ex := b.marketOf(clusterName)
	if ex == nil {
		return 0, fmt.Errorf("scenario: no market holds cluster %q", clusterName)
	}
	return ex.Submit(team, bid)
}

// CancelBid withdraws a raw bid booked by SubmitBid, so a partially
// injected multi-bid event (one leg rejected) can roll back.
func (b *Backend) CancelBid(clusterName string, id int) error {
	ex := b.marketOf(clusterName)
	if ex == nil {
		return fmt.Errorf("scenario: no market holds cluster %q", clusterName)
	}
	return ex.Cancel(id)
}

// Status reports a product order's current status.
func (b *Backend) Status(id int) (market.OrderStatus, error) {
	fo, err := b.fed.Order(id)
	if err != nil {
		return 0, err
	}
	return fo.Status, nil
}

// Settle runs one epoch's settlements. Markets settle sequentially in
// registration order through SettleRegion (Tick over one region: the
// fault seams Serve runs), each followed by its own
// settlement wave, and a dark market is skipped entirely: its book, clock
// and gossip go silent until it rejoins. This is not Federation.Tick's
// order: a failover leg a market's wave books into a market later in the
// order is auctioned in the same epoch, where under Tick it waits a tick. The
// exchange kind's one market is never dark; a dark region there only
// means no new demand names its clusters. Non-convergence and empty books
// are normal epoch outcomes, not errors. An injected settlement fault
// fails the round before any state moves, and a settlement abort releases
// the unprocessed batch, so the retry replays the identical round.
func (b *Backend) Settle(down map[string]bool) error {
	for _, m := range b.markets {
		if down[m] {
			continue
		}
		err := retryFaults(func() error {
			_, err := b.fed.SettleRegion(m)
			if errors.Is(err, market.ErrNoOpenOrders) || errors.Is(err, core.ErrNoConvergence) {
				return nil
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// EpochRecords returns the auction records appended since the last call,
// in market order. The engine calls it between settlements, so nothing is
// appended between a market's count and its tail.
func (b *Backend) EpochRecords() []*market.AuctionRecord {
	var out []*market.AuctionRecord
	for _, m := range b.markets {
		ex := b.fed.Region(m).Exchange()
		n := ex.AuctionCount()
		out = append(out, ex.HistoryTail(n-b.seen[m])...)
		b.seen[m] = n
	}
	return out
}

// Place reflects a won order's allocation onto the owning fleet as
// scheduled tasks, so settled demand congests future reserve prices.
// Placement goes through the winning leg's market, so that market's
// journal carries the placement event and a recovered process
// re-materializes the same tasks on the same machines. It returns the
// tasks placed and the allocation by pool.
func (b *Backend) Place(id int) ([]market.PlacedTask, []PoolQty) {
	fo, err := b.fed.Order(id)
	if err != nil || fo.WonLeg() == nil {
		return nil, nil
	}
	_, tasks, got := b.place(b.fed.Region(fo.WonLeg().Region).Exchange(), fo.WonLeg().OrderID)
	return tasks, got
}

// PlaceBid is Place for a raw bid booked by SubmitBid: it reports the
// bid's status and, once it won, places its bought part (a sale has
// none) and returns its allocation by pool.
func (b *Backend) PlaceBid(clusterName string, id int) (market.OrderStatus, []market.PlacedTask, []PoolQty) {
	return b.place(b.marketOf(clusterName), id)
}

func (b *Backend) place(ex *market.Exchange, id int) (market.OrderStatus, []market.PlacedTask, []PoolQty) {
	o, err := ex.Order(id)
	if err != nil {
		return market.Unsettled, nil, nil // the book lost it: it will never settle
	}
	if o.Status != market.Won {
		return o.Status, nil, nil
	}
	got := poolQty(ex.Registry(), o.Allocation())
	tasks, err := ex.PlaceOrder(id)
	if err != nil {
		return o.Status, nil, got
	}
	b.track(tasks)
	return o.Status, tasks, got
}

// TaskReq returns a placed task's resources, ok=false once it is gone.
func (b *Backend) TaskReq(pt market.PlacedTask) (cluster.Usage, bool) {
	t, _, ok := b.marketOf(pt.Cluster).Fleet().Cluster(pt.Cluster).TaskInfo(pt.TaskID)
	return t.Req, ok
}

// ClusterTasks lists the tasks running in a cluster, machine by machine,
// each machine's in ID order.
func (b *Backend) ClusterTasks(clusterName string) []market.PlacedTask {
	var out []market.PlacedTask
	for _, m := range b.marketOf(clusterName).Fleet().Cluster(clusterName).Machines() {
		for _, t := range m.Tasks() {
			out = append(out, market.PlacedTask{Cluster: clusterName, TaskID: t.ID})
		}
	}
	return out
}

// Evict removes placed tasks through their markets' journaled eviction
// op — the quota a won sale gave up.
func (b *Backend) Evict(tasks []market.PlacedTask) {
	for _, pt := range tasks {
		// As in evictFraction, a task can only be missing if the scenario
		// is inconsistent; the invariant kernel would flag the fallout.
		_ = b.marketOf(pt.Cluster).EvictTask(pt.Cluster, pt.TaskID)
	}
	for _, rn := range b.regions {
		b.placed[rn] = withoutTasks(b.placed[rn], tasks)
	}
}

// track appends placed tasks to their regions' eviction queues.
func (b *Backend) track(tasks []market.PlacedTask) {
	for _, pt := range tasks {
		rn := b.owner[pt.Cluster]
		b.placed[rn] = append(b.placed[rn], pt)
	}
}

// EvictFraction removes the given fraction of the scenario-placed tasks
// in the region, oldest first — the demand ebb of a diurnal trough.
func (b *Backend) EvictFraction(region string, frac float64) {
	ex := b.exchangeOf(region)
	if ex == nil {
		return
	}
	b.placed[region] = evictFraction(ex.EvictTask, b.placed[region], frac)
}

// Disburse credits new budget across all team accounts, equal shares,
// split evenly across the markets.
func (b *Backend) Disburse(total float64) error {
	share := total / float64(len(b.markets))
	for _, m := range b.markets {
		ex := b.fed.Region(m).Exchange()
		// Disburse is one event, so a journal-failure abort leaves nothing
		// to undo and the whole operation retries cleanly.
		err := retryFaults(func() error { return ex.Disburse(share) })
		if err != nil {
			return err
		}
	}
	return nil
}

// ReservePrices returns the current reserve price vector of the market
// holding the region.
func (b *Backend) ReservePrices(region string) (resource.Vector, error) {
	ex := b.exchangeOf(region)
	if ex == nil {
		return nil, fmt.Errorf("scenario: no region %q", region)
	}
	return ex.ReservePrices()
}

// MeanCPUPrice averages the region's CPU pool prices: clearing prices
// once its market has converged an auction, reserve prices before.
func (b *Backend) MeanCPUPrice(region string) float64 {
	ex := b.exchangeOf(region)
	if ex == nil {
		return 0
	}
	reg := ex.Registry()
	prices, _, err := ex.CurrentPrices()
	if err != nil {
		return 0
	}
	var sum float64
	n := 0
	for _, cn := range b.clusters[region] {
		if i, ok := reg.Index(resource.Pool{Cluster: cn, Dim: resource.CPU}); ok {
			sum += prices[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PoolState is one pool as the figure views read it around an epoch.
type PoolState struct {
	Pool resource.Pool
	// Cap is the pool's capacity and Cost c(r), its former fixed price.
	Cap, Cost float64
	// Util is ψ(r) before the epoch's orders, PostUtil after its sales
	// were evicted and its purchases placed.
	Util, PostUtil float64
	// Reserve is the pool's reserve price before the epoch's orders, and
	// Price its market's last clearing price after the epoch's
	// settlement wave (0 before the market's first converged auction).
	Reserve, Price float64
}

// Pools reads every pool, in market order: capacity, cost, utilization,
// reserve and last clearing price. PostUtil is left for the caller.
func (b *Backend) Pools() ([]PoolState, error) {
	var out []PoolState
	for _, m := range b.markets {
		ex := b.fed.Region(m).Exchange()
		reg, fleet := ex.Registry(), ex.Fleet()
		capacity, cost, util := fleet.CapacityVector(reg), fleet.CostVector(reg), fleet.UtilizationVector(reg)
		reserve, err := ex.ReservePrices()
		if err != nil {
			return nil, err
		}
		prices := ex.LastClearingPrices()
		for i := 0; i < reg.Len(); i++ {
			p := PoolState{Pool: reg.Pool(i), Cap: capacity[i], Cost: cost[i], Util: util[i], Reserve: reserve[i]}
			if prices != nil {
				p.Price = prices[i]
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// OpenOrderCount counts orders awaiting settlement across markets.
func (b *Backend) OpenOrderCount() int {
	n := 0
	for _, m := range b.markets {
		n += b.fed.Region(m).Exchange().OpenOrderCount()
	}
	return n
}

// Check runs the shared invariant kernel over the whole market.
func (b *Backend) Check() []invariant.Violation { return invariant.CheckFederation(b.fed) }

// evictFraction evicts the oldest frac of the placed tasks through the
// owning exchange's journaled eviction op and returns the survivors.
func evictFraction(evict func(clusterName, taskID string) error, placed []market.PlacedTask, frac float64) []market.PlacedTask {
	if frac <= 0 || len(placed) == 0 {
		return placed
	}
	n := int(frac * float64(len(placed)))
	if n <= 0 {
		n = 1
	}
	if n > len(placed) {
		n = len(placed)
	}
	for _, pt := range placed[:n] {
		// The tracked task can only be missing if the scenario itself is
		// inconsistent; the invariant kernel would flag the fallout.
		_ = evict(pt.Cluster, pt.TaskID)
	}
	return append([]market.PlacedTask(nil), placed[n:]...)
}

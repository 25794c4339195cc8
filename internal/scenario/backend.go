// Package scenario is the planet-scale scenario engine: a deterministic,
// seed-reproducible multi-epoch driver that pushes either a single
// market.Exchange or a full federation.Federation through scripted event
// timelines — diurnal demand waves, flash crowds on hot pools, bidder
// churn with budget refresh cycles, regions going dark and rejoining,
// adaptive bidders that shade their premiums from past results
// (reproducing the Table I learning curve), and clock non-convergence
// storms from hostile trader mixes — and runs the shared invariant
// kernel (internal/invariant) after every epoch.
//
// The paper's Section V evidence is longitudinal: premiums fall and
// prices track congestion only across successive auctions with
// persistent accounts (Table I, Figures 6–7). One-shot worlds cannot
// exercise that; the scenario engine makes "as many scenarios as you can
// imagine" a one-line test. See the Catalog for the named scenarios and
// DESIGN.md for how to add one.
package scenario

import (
	"errors"
	"fmt"
	"path/filepath"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/fault"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// Outcome is the backend-neutral view of one order's fate.
type Outcome struct {
	Status  market.OrderStatus
	Payment float64
	// Region is the sub-market that settled the order ("" while open).
	Region string
}

// Backend abstracts the market under test so every scenario runs
// unchanged against a single exchange and a federation. Both backends
// expose the same topology — Regions() named r1…rN, each owning
// ClustersOf(region) clusters named rK-cJ — so a scenario's event
// timeline (which region is dark, where the flash crowd lands) is
// backend-independent. On the exchange backend the regions are virtual
// groupings over one fleet and one auctioneer; on the federation backend
// they are autonomous regional markets behind the price-board router.
//
// Backends are not safe for concurrent use: the engine is deliberately
// single-threaded so same-seed runs are bit-identical. Concurrency is
// soaked separately by the -race stress tests.
type Backend interface {
	// Kind names the backend ("exchange" or "federation").
	Kind() string
	// Regions lists the sub-market names in fixed order.
	Regions() []string
	// ClustersOf lists a region's cluster names in fixed order.
	ClustersOf(region string) []string
	// RegistryFor returns the pool registry governing the cluster's
	// sub-market (the global registry on the exchange backend).
	RegistryFor(clusterName string) *resource.Registry
	// OpenAccount creates a team account (in every region, on the
	// federation backend).
	OpenAccount(team string) error
	// SubmitProduct routes one product order and returns its reference.
	SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (int, error)
	// SubmitBid books a raw clock bid into the sub-market owning the
	// cluster — the path scenarios use to inject hostile trader mixes the
	// product catalog cannot express. It returns the regional order ID,
	// usable only with CancelBid against the same cluster.
	SubmitBid(clusterName, team string, bid *core.Bid) (int, error)
	// CancelBid withdraws a raw bid booked by SubmitBid, so a partially
	// injected multi-bid event (one leg rejected) can roll back.
	CancelBid(clusterName string, id int) error
	// Outcome reports the order's current status.
	Outcome(id int) (Outcome, error)
	// Settle runs one settlement wave over every region not in down.
	// Non-convergence and empty books are normal epoch outcomes, not
	// errors.
	Settle(down map[string]bool) error
	// EpochRecords returns the auction records appended since the last
	// call, in deterministic region order.
	EpochRecords() []*market.AuctionRecord
	// Place reflects a won order's allocation onto the owning fleet as
	// scheduled tasks, so settled demand congests future reserve prices.
	Place(id int)
	// EvictFraction removes the given fraction of the scenario-placed
	// tasks in the region, oldest first — the demand ebb of a diurnal
	// trough.
	EvictFraction(region string, frac float64)
	// Disburse credits new budget across all team accounts, equal shares
	// (split across regions on the federation backend).
	Disburse(total float64) error
	// ReservePrices returns the region's current reserve price vector.
	ReservePrices(region string) (resource.Vector, error)
	// MeanCPUPrice averages the region's CPU pool prices: clearing prices
	// once an auction has converged, reserve prices before.
	MeanCPUPrice(region string) float64
	// OpenOrderCount counts orders awaiting settlement across regions.
	OpenOrderCount() int
	// Check runs the shared invariant kernel over the whole market.
	Check() []invariant.Violation
	// CrashRecover kills the backend's journals without flushing (the
	// scripted power loss) and rebuilds the whole market from disk:
	// deterministic fleet reconstruction, snapshot load, WAL replay, and
	// the invariant kernel before serving resumes. It errors on an
	// un-journaled backend.
	CrashRecover() error
	// Close releases the backend's journals (and their directory locks).
	Close() error
}

// regionName and clusterName fix the shared topology naming.
func regionName(k int) string                 { return fmt.Sprintf("r%d", k+1) }
func clusterName(region string, j int) string { return fmt.Sprintf("%s-c%d", region, j+1) }

// buildFleet assembles one region's clusters, utilization-skewed by the
// config's seeded rng so every region starts with a distinct hot/cold
// profile.
func buildFleet(cfg Config, region string, util float64) (*cluster.Fleet, error) {
	fleet := cluster.NewFleet()
	for j := 0; j < cfg.ClustersPerRegion; j++ {
		cn := clusterName(region, j)
		c := cluster.New(cn, nil)
		c.UnitCost = cluster.Usage{CPU: unitCostCPU, RAM: unitCostRAM, Disk: unitCostDisk}
		c.AddMachines(cfg.MachinesPerCluster, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			return nil, err
		}
		if err := fleet.FillToUtilization(cfg.rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// regionUtil picks region k's starting utilization: r1 hot, the rest
// cooling linearly — the skew the paper's Figure 6 worlds start from.
func regionUtil(k, regions int) float64 {
	if regions == 1 {
		return 0.55
	}
	return 0.78 - 0.6*float64(k)/float64(regions-1)
}

func marketConfig(cfg Config) market.Config {
	return market.Config{
		InitialBudget: cfg.InitialBudget,
		MaxRounds:     cfg.MaxRounds,
		Shards:        cfg.Shards,
		SnapshotEvery: cfg.SnapshotEvery,
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

// faultRetries bounds the backend-level force-resume-and-retry loops: a
// fault burst deep enough to outlast the exchanges' bounded inline
// retries (chaos schedules, hostile unit tests) quiesces the exchange;
// the backend forces a resume probe and replays the operation, which the
// entry-point fault seams keep side-effect-free on failure.
const faultRetries = 8

// faultRetryable reports whether the error is the fault machinery
// speaking — an injected fault surfacing at an entry seam, or the
// degraded-quiesce rejection — rather than an organic failure.
func faultRetryable(err error) bool {
	return errors.Is(err, market.ErrDegraded) || errors.Is(err, fault.ErrInjected)
}

// openFreshJournal opens a journal directory that must hold no prior
// state: scenario backends always build fresh worlds, and recovery goes
// through CrashRecover against the same directory.
func openFreshJournal(dir string, cfg Config) (*journal.Journal, error) {
	j, rec, err := journal.Open(dir, journal.Options{FsyncEvery: cfg.FsyncEvery, FS: faultFS(cfg)})
	if err != nil {
		return nil, err
	}
	if !rec.Empty() {
		j.Close()
		return nil, fmt.Errorf("scenario: journal dir %s already holds a journal", dir)
	}
	return j, nil
}

// placedTask remembers one scheduled task for later eviction.
type placedTask struct {
	cluster string
	id      string
}

// ---------------------------------------------------------------------
// Exchange backend: one fleet, one auctioneer, regions as groupings.
// ---------------------------------------------------------------------

type exchangeBackend struct {
	ex       *market.Exchange
	regions  []string
	clusters map[string][]string // region → clusters
	owner    map[string]string   // cluster → region
	seen     int                 // history records already reported
	placed   map[string][]placedTask
	// cfg (with its rng detached) is kept so CrashRecover can rebuild the
	// fleet exactly as the original build did; journal is non-nil on the
	// durable variant.
	cfg     Config
	journal *journal.Journal
}

// NewExchangeBackend builds the single-exchange backend: every region's
// clusters live in one fleet behind one order book and one clock.
func NewExchangeBackend(cfg Config) (Backend, error) {
	cfg.applyDefaults()
	b := &exchangeBackend{
		clusters: make(map[string][]string),
		owner:    make(map[string]string),
		placed:   make(map[string][]placedTask),
	}
	fleet := cluster.NewFleet()
	for k := 0; k < cfg.Regions; k++ {
		rn := regionName(k)
		b.regions = append(b.regions, rn)
		rf, err := buildFleet(cfg, rn, regionUtil(k, cfg.Regions))
		if err != nil {
			return nil, err
		}
		for _, cn := range rf.ClusterNames() {
			if err := fleet.AddCluster(rf.Cluster(cn)); err != nil {
				return nil, err
			}
			b.clusters[rn] = append(b.clusters[rn], cn)
			b.owner[cn] = rn
		}
	}
	mcfg := marketConfig(cfg)
	if cfg.JournalDir != "" {
		j, err := openFreshJournal(cfg.JournalDir, cfg)
		if err != nil {
			return nil, err
		}
		mcfg.Journal = j
		b.journal = j
	}
	ex, err := market.NewExchange(fleet, mcfg)
	if err != nil {
		return nil, err
	}
	b.ex = ex
	cfg.rng = nil
	b.cfg = cfg
	return b, nil
}

func (b *exchangeBackend) CrashRecover() error {
	if b.journal == nil {
		return errors.New("scenario: exchange backend has no journal to recover from")
	}
	b.journal.Crash()
	j, rec, err := journal.Open(b.cfg.JournalDir, journal.Options{FsyncEvery: b.cfg.FsyncEvery, FS: faultFS(b.cfg)})
	if err != nil {
		return err
	}
	// Rebuild the fleet exactly as the crashed build did: same seed, same
	// region order, a fresh rng stream.
	cfg := b.cfg
	cfg.applyDefaults()
	fleet := cluster.NewFleet()
	for k := 0; k < cfg.Regions; k++ {
		rf, err := buildFleet(cfg, regionName(k), regionUtil(k, cfg.Regions))
		if err != nil {
			j.Close()
			return err
		}
		for _, cn := range rf.ClusterNames() {
			if err := fleet.AddCluster(rf.Cluster(cn)); err != nil {
				j.Close()
				return err
			}
		}
	}
	mcfg := marketConfig(cfg)
	mcfg.Journal = j
	ex, err := market.Recover(fleet, mcfg, rec)
	if err != nil {
		j.Close()
		return err
	}
	if vs := invariant.CheckExchange(ex); len(vs) > 0 {
		j.Close()
		return fmt.Errorf("scenario: recovered exchange fails invariants: %s", vs[0])
	}
	b.ex = ex
	b.journal = j
	// The placed lists come back from the recovered exchange's own fleet
	// delta, in original placement order (EvictFraction depends on it).
	b.placed = make(map[string][]placedTask)
	for _, pt := range ex.PlacedTasks() {
		rn := b.owner[pt.Cluster]
		b.placed[rn] = append(b.placed[rn], placedTask{cluster: pt.Cluster, id: pt.TaskID})
	}
	return nil
}

func (b *exchangeBackend) Close() error {
	if b.journal == nil {
		return nil
	}
	return b.journal.Close()
}

func (b *exchangeBackend) Kind() string                          { return "exchange" }
func (b *exchangeBackend) Regions() []string                     { return b.regions }
func (b *exchangeBackend) ClustersOf(region string) []string     { return b.clusters[region] }
func (b *exchangeBackend) RegistryFor(string) *resource.Registry { return b.ex.Registry() }
func (b *exchangeBackend) OpenAccount(team string) error         { return b.ex.OpenAccount(team) }

func (b *exchangeBackend) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (int, error) {
	o, err := b.ex.SubmitProduct(team, product, qty, clusters, limit)
	for attempt := 0; attempt < faultRetries && err != nil && faultRetryable(err); attempt++ {
		// A rejected-for-degraded submit left no trace (the stripe slot is
		// rolled back), so force a resume probe and replay it verbatim.
		_ = b.ex.TryResume(true)
		o, err = b.ex.SubmitProduct(team, product, qty, clusters, limit)
	}
	if err != nil {
		return 0, err
	}
	return o.ID, nil
}

func (b *exchangeBackend) SubmitBid(_, team string, bid *core.Bid) (int, error) {
	o, err := b.ex.Submit(team, bid)
	if err != nil {
		return 0, err
	}
	return o.ID, nil
}

func (b *exchangeBackend) CancelBid(_ string, id int) error { return b.ex.Cancel(id) }

func (b *exchangeBackend) Outcome(id int) (Outcome, error) {
	o, err := b.ex.Order(id)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Status: o.Status, Payment: o.Payment}
	if o.Status == market.Won {
		// Attribute the win to the region owning the settled bundle's
		// first positive pool.
		pools, qty := o.Grant()
		for k, q := range qty {
			if q > 0 {
				out.Region = b.owner[b.ex.Registry().Pool(int(pools[k])).Cluster]
				break
			}
		}
	}
	return out, nil
}

func (b *exchangeBackend) Settle(map[string]bool) error {
	// One auctioneer clears the whole book; a virtual region being dark
	// only means no new demand names its clusters. A fault burst deep
	// enough to quiesce the exchange is answered with a forced resume
	// probe and a replay — settlement aborts release the unprocessed
	// batch, so the retried auction claims the identical order set.
	var err error
	for attempt := 0; attempt <= faultRetries; attempt++ {
		if attempt > 0 {
			_ = b.ex.TryResume(true)
		}
		_, _, err = b.ex.RunAuction()
		if err == nil || errors.Is(err, market.ErrNoOpenOrders) || errors.Is(err, core.ErrNoConvergence) {
			return nil
		}
		if !faultRetryable(err) {
			return err
		}
	}
	return err
}

func (b *exchangeBackend) EpochRecords() []*market.AuctionRecord {
	var out []*market.AuctionRecord
	out, b.seen = recordsSince(b.ex, b.seen)
	return out
}

// recordsSince returns the auction records ex appended past the first
// seen, copying only those, and the new count (the engine calls it
// between settlements, so nothing is appended between count and tail).
func recordsSince(ex *market.Exchange, seen int) ([]*market.AuctionRecord, int) {
	n := ex.AuctionCount()
	return ex.HistoryTail(n - seen), n
}

func (b *exchangeBackend) Place(id int) {
	// Placement goes through the exchange's journaled op, so a recovered
	// process re-materializes the same tasks on the same machines.
	tasks, err := b.ex.PlaceOrder(id)
	if err != nil {
		return
	}
	for _, pt := range tasks {
		rn := b.owner[pt.Cluster]
		b.placed[rn] = append(b.placed[rn], placedTask{cluster: pt.Cluster, id: pt.TaskID})
	}
}

func (b *exchangeBackend) EvictFraction(region string, frac float64) {
	b.placed[region] = evictFraction(b.ex.EvictTask, b.placed[region], frac)
}

func (b *exchangeBackend) Disburse(total float64) error {
	// Disburse is one event, so a journal-failure abort leaves nothing to
	// undo and the whole operation retries cleanly.
	err := b.ex.Disburse(market.EqualShares, total)
	for attempt := 0; attempt < faultRetries && err != nil && faultRetryable(err); attempt++ {
		_ = b.ex.TryResume(true)
		err = b.ex.Disburse(market.EqualShares, total)
	}
	return err
}

func (b *exchangeBackend) ReservePrices(string) (resource.Vector, error) {
	return b.ex.ReservePrices()
}

func (b *exchangeBackend) MeanCPUPrice(region string) float64 {
	return meanCPUPrice(b.ex, b.clusters[region])
}

func (b *exchangeBackend) OpenOrderCount() int { return b.ex.OpenOrderCount() }

func (b *exchangeBackend) Check() []invariant.Violation { return invariant.CheckExchange(b.ex) }

// ---------------------------------------------------------------------
// Federation backend: one autonomous regional market per region.
// ---------------------------------------------------------------------

type federationBackend struct {
	fed     *federation.Federation
	regions []string
	seen    map[string]int
	placed  map[string][]placedTask
	// cfg (rng detached) backs CrashRecover's deterministic rebuild;
	// journals maps region name (plus "fed" for the router) to its
	// journal on the durable variant.
	cfg      Config
	journals map[string]*journal.Journal
}

// fedJournalName keys the router's own journal in the journals map and
// names its subdirectory under Config.JournalDir.
const fedJournalName = "fed"

// NewFederationBackend builds the federated backend: one Region per
// scenario region, fronted by the price-board router.
func NewFederationBackend(cfg Config) (Backend, error) {
	cfg.applyDefaults()
	b := &federationBackend{
		seen:   make(map[string]int),
		placed: make(map[string][]placedTask),
	}
	journals := make(map[string]*journal.Journal)
	closeAll := func() {
		//marketlint:orderfree each journal is closed exactly once; close order is immaterial
		for _, j := range journals {
			j.Close()
		}
	}
	var members []*federation.Region
	for k := 0; k < cfg.Regions; k++ {
		rn := regionName(k)
		fleet, err := buildFleet(cfg, rn, regionUtil(k, cfg.Regions))
		if err != nil {
			closeAll()
			return nil, err
		}
		mcfg := marketConfig(cfg)
		if cfg.JournalDir != "" {
			j, err := openFreshJournal(filepath.Join(cfg.JournalDir, rn), cfg)
			if err != nil {
				closeAll()
				return nil, err
			}
			journals[rn] = j
			mcfg.Journal = j
		}
		r, err := federation.NewRegion(rn, fleet, mcfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		members = append(members, r)
		b.regions = append(b.regions, rn)
	}
	fed, err := federation.NewFederation(members...)
	if err != nil {
		closeAll()
		return nil, err
	}
	// The router publishes its routing events to the same firehose the
	// regional exchanges got through marketConfig, so one subscription
	// sees the whole federated stream. The fault injector (possibly nil)
	// interposes on its region calls and gossip.
	fed.AttachTelemetry(cfg.Telemetry)
	fed.AttachFaults(cfg.Injector)
	if cfg.JournalDir != "" {
		fj, err := openFreshJournal(filepath.Join(cfg.JournalDir, fedJournalName), cfg)
		if err != nil {
			closeAll()
			return nil, err
		}
		journals[fedJournalName] = fj
		fed.AttachJournal(fj, cfg.SnapshotEvery)
		b.journals = journals
	}
	b.fed = fed
	cfg.rng = nil
	b.cfg = cfg
	return b, nil
}

func (b *federationBackend) CrashRecover() error {
	if len(b.journals) == 0 {
		return errors.New("scenario: federation backend has no journals to recover from")
	}
	//marketlint:orderfree each journal is crashed exactly once; crash order is immaterial
	for _, j := range b.journals {
		j.Crash()
	}
	cfg := b.cfg
	cfg.applyDefaults()
	journals := make(map[string]*journal.Journal)
	closeAll := func() {
		//marketlint:orderfree each journal is closed exactly once; close order is immaterial
		for _, j := range journals {
			j.Close()
		}
	}
	var members []*federation.Region
	for k := 0; k < cfg.Regions; k++ {
		rn := regionName(k)
		fleet, err := buildFleet(cfg, rn, regionUtil(k, cfg.Regions))
		if err != nil {
			closeAll()
			return err
		}
		j, rec, err := journal.Open(filepath.Join(cfg.JournalDir, rn), journal.Options{FsyncEvery: cfg.FsyncEvery, FS: faultFS(cfg)})
		if err != nil {
			closeAll()
			return err
		}
		journals[rn] = j
		mcfg := marketConfig(cfg)
		mcfg.Journal = j
		r, err := federation.RecoverRegion(rn, fleet, mcfg, rec)
		if err != nil {
			closeAll()
			return err
		}
		members = append(members, r)
	}
	fj, frec, err := journal.Open(filepath.Join(cfg.JournalDir, fedJournalName), journal.Options{FsyncEvery: cfg.FsyncEvery, FS: faultFS(cfg)})
	if err != nil {
		closeAll()
		return err
	}
	journals[fedJournalName] = fj
	fed, err := federation.NewFederation(members...)
	if err != nil {
		closeAll()
		return err
	}
	if err := fed.Restore(frec); err != nil {
		closeAll()
		return err
	}
	fed.AttachJournal(fj, cfg.SnapshotEvery)
	// Replay itself published nothing (recovery dispatches straight to
	// applyEvent); the resurrected router rejoins the live stream here —
	// and the fault seam, which the partition may still be arming.
	fed.AttachTelemetry(cfg.Telemetry)
	fed.AttachFaults(cfg.Injector)
	if vs := invariant.CheckFederation(fed); len(vs) > 0 {
		closeAll()
		return fmt.Errorf("scenario: recovered federation fails invariants: %s", vs[0])
	}
	b.fed = fed
	b.journals = journals
	b.placed = make(map[string][]placedTask)
	for _, rn := range b.regions {
		for _, pt := range fed.Region(rn).Exchange().PlacedTasks() {
			b.placed[rn] = append(b.placed[rn], placedTask{cluster: pt.Cluster, id: pt.TaskID})
		}
	}
	return nil
}

func (b *federationBackend) Close() error {
	var first error
	//marketlint:orderfree map order only picks which close error is surfaced; callers check err != nil
	for _, j := range b.journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (b *federationBackend) Kind() string      { return "federation" }
func (b *federationBackend) Regions() []string { return b.regions }

func (b *federationBackend) ClustersOf(region string) []string {
	r := b.fed.Region(region)
	if r == nil {
		return nil
	}
	return r.Clusters()
}

func (b *federationBackend) RegistryFor(clusterName string) *resource.Registry {
	r := b.fed.Region(b.fed.RegionOf(clusterName))
	if r == nil {
		return nil
	}
	return r.Exchange().Registry()
}

func (b *federationBackend) OpenAccount(team string) error { return b.fed.OpenAccount(team) }

func (b *federationBackend) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (int, error) {
	fo, err := b.fed.SubmitProduct(team, product, qty, clusters, limit)
	for attempt := 0; attempt < faultRetries && err != nil && faultRetryable(err); attempt++ {
		// The router's fault seam fails routing before any state moves, and
		// a degraded regional submit rolls its stripe slot back, so the
		// replayed call is operation-identical — which is what lets a
		// partition that heals leave no fingerprint.
		b.forceResume()
		fo, err = b.fed.SubmitProduct(team, product, qty, clusters, limit)
	}
	if err != nil {
		return 0, err
	}
	return fo.ID, nil
}

// forceResume force-probes every region's exchange out of degraded
// quiesce — the backend-level heal step between fault retries.
func (b *federationBackend) forceResume() {
	for _, rn := range b.regions {
		_ = b.fed.Region(rn).Exchange().TryResume(true)
	}
}

func (b *federationBackend) SubmitBid(clusterName, team string, bid *core.Bid) (int, error) {
	r := b.fed.Region(b.fed.RegionOf(clusterName))
	if r == nil {
		return 0, fmt.Errorf("scenario: no region owns cluster %q", clusterName)
	}
	// Region-local traffic legitimately enters through the regional book;
	// settlement still goes through SettleRegion so the router gossips.
	o, err := r.Exchange().Submit(team, bid)
	if err != nil {
		return 0, err
	}
	return o.ID, nil
}

func (b *federationBackend) CancelBid(clusterName string, id int) error {
	r := b.fed.Region(b.fed.RegionOf(clusterName))
	if r == nil {
		return fmt.Errorf("scenario: no region owns cluster %q", clusterName)
	}
	return r.Exchange().Cancel(id)
}

func (b *federationBackend) Outcome(id int) (Outcome, error) {
	fo, err := b.fed.Order(id)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Status: fo.Status, Payment: fo.Payment, Region: fo.Region}, nil
}

func (b *federationBackend) Settle(down map[string]bool) error {
	// Regions settle sequentially in registration order — the
	// deterministic counterpart of Federation.Tick's concurrent wave —
	// and dark regions are skipped entirely: their books, clocks, and
	// gossip go silent until the region rejoins. An injected settlement
	// fault fails the round before any state moves, so the retry replays
	// the identical round once the partition window is consumed.
	for _, rn := range b.regions {
		if down[rn] {
			continue
		}
		var err error
		for attempt := 0; attempt <= faultRetries; attempt++ {
			if attempt > 0 {
				_ = b.fed.Region(rn).Exchange().TryResume(true)
			}
			_, err = b.fed.SettleRegion(rn)
			if err == nil || errors.Is(err, market.ErrNoOpenOrders) || errors.Is(err, core.ErrNoConvergence) {
				err = nil
				break
			}
			if !faultRetryable(err) {
				return err
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *federationBackend) EpochRecords() []*market.AuctionRecord {
	var out []*market.AuctionRecord
	for _, rn := range b.regions {
		recs, n := recordsSince(b.fed.Region(rn).Exchange(), b.seen[rn])
		out = append(out, recs...)
		b.seen[rn] = n
	}
	return out
}

func (b *federationBackend) Place(id int) {
	fo, err := b.fed.Order(id)
	if err != nil || fo.Status != market.Won {
		return
	}
	r := b.fed.Region(fo.Region)
	if r == nil {
		return
	}
	// Placement goes through the winning leg's regional order, so the
	// region's own journal carries the placement event.
	for _, leg := range fo.Legs {
		if leg.Region != fo.Region || leg.Status != market.Won {
			continue
		}
		tasks, err := r.Exchange().PlaceOrder(leg.OrderID)
		if err != nil {
			return
		}
		for _, pt := range tasks {
			b.placed[fo.Region] = append(b.placed[fo.Region], placedTask{cluster: pt.Cluster, id: pt.TaskID})
		}
		return
	}
}

func (b *federationBackend) EvictFraction(region string, frac float64) {
	r := b.fed.Region(region)
	if r == nil {
		return
	}
	b.placed[region] = evictFraction(r.Exchange().EvictTask, b.placed[region], frac)
}

func (b *federationBackend) Disburse(total float64) error {
	share := total / float64(len(b.regions))
	for _, rn := range b.regions {
		ex := b.fed.Region(rn).Exchange()
		err := ex.Disburse(market.EqualShares, share)
		for attempt := 0; attempt < faultRetries && err != nil && faultRetryable(err); attempt++ {
			_ = ex.TryResume(true)
			err = ex.Disburse(market.EqualShares, share)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *federationBackend) ReservePrices(region string) (resource.Vector, error) {
	r := b.fed.Region(region)
	if r == nil {
		return nil, fmt.Errorf("scenario: no region %q", region)
	}
	return r.Exchange().ReservePrices()
}

func (b *federationBackend) MeanCPUPrice(region string) float64 {
	r := b.fed.Region(region)
	if r == nil {
		return 0
	}
	return meanCPUPrice(r.Exchange(), r.Clusters())
}

func (b *federationBackend) OpenOrderCount() int {
	n := 0
	for _, rn := range b.regions {
		n += b.fed.Region(rn).Exchange().OpenOrderCount()
	}
	return n
}

func (b *federationBackend) Check() []invariant.Violation { return invariant.CheckFederation(b.fed) }

// ---------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------

// meanCPUPrice averages the CPU pool prices of the named clusters:
// clearing prices once the exchange has a converged auction, reserve
// prices before.
func meanCPUPrice(ex *market.Exchange, clusters []string) float64 {
	reg := ex.Registry()
	prices := ex.LastClearingPrices()
	if prices == nil {
		var err error
		prices, err = ex.ReservePrices()
		if err != nil {
			return 0
		}
	}
	var sum float64
	n := 0
	for _, cn := range clusters {
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

// evictFraction evicts the oldest frac of the placed tasks through the
// owning exchange's journaled eviction op and returns the survivors.
func evictFraction(evict func(clusterName, taskID string) error, placed []placedTask, frac float64) []placedTask {
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
		_ = evict(pt.cluster, pt.id)
	}
	return append([]placedTask(nil), placed[n:]...)
}

// Package clustermarket is a Go implementation of the market-based
// resource provisioning system from "Using a Market Economy to Provision
// Compute Resources Across Planet-wide Clusters" (Stokely, Winget, Keyes,
// Grimes, Yolken — IPPS/IPDPS 2009).
//
// The package re-exports the stable public surface of the internal
// packages:
//
//   - the ascending clock auction (Section III): Bid, Auction,
//     AuctionConfig, Result, the Capped price step, and feasibility
//     checking against the SYSTEM constraints;
//   - congestion-weighted reserve pricing (Section IV): the weighting
//     curves and Pricer;
//   - the cluster substrate: Fleet, Cluster, Machine, schedulers, quotas;
//   - the trading platform (Section V): Exchange, product catalog, orders,
//     billing ledger, market summary, and the web front end;
//   - the TBBL-style bidding language (Section II) for textual bids.
//
// The minimal flow is:
//
//	fleet := clustermarket.NewFleet()
//	...add clusters and machines...
//	ex, _ := clustermarket.NewExchange(fleet, clustermarket.ExchangeConfig{})
//	ex.OpenAccount("team-a")
//	ex.SubmitProduct("team-a", "batch-compute", 10, []string{"r1", "r2"}, 400)
//	record, result, _ := ex.RunAuction()
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between the paper's sections and the implementation.
package clustermarket

import (
	"fmt"
	"time"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/optimize"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/scenario"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

// Resource model (Section II).
type (
	// Dimension is a resource type (CPU, RAM, Disk, Network).
	Dimension = resource.Dimension
	// Pool is one divisible resource pool: a (cluster, dimension) pair.
	Pool = resource.Pool
	// Registry assigns dense indices to the pools of one market.
	Registry = resource.Registry
	// Vector is an R-component quantity or price vector.
	Vector = resource.Vector
)

// Resource dimensions.
const (
	CPU     = resource.CPU
	RAM     = resource.RAM
	Disk    = resource.Disk
	Network = resource.Network
)

// NewRegistry returns a registry over the given pools.
func NewRegistry(pools ...Pool) *Registry { return resource.NewRegistry(pools...) }

// NewStandardRegistry crosses the clusters with CPU, RAM, and Disk.
func NewStandardRegistry(clusters ...string) *Registry {
	return resource.NewStandardRegistry(clusters...)
}

// Clock auction (Section III).
type (
	// Bid is a sealed bid B_u = {Q_u, π_u}.
	Bid = core.Bid
	// Auction runs the ascending clock of Algorithm 1.
	Auction = core.Auction
	// AuctionConfig parameterizes a clock auction run.
	AuctionConfig = core.Config
	// AuctionResult is the settled outcome.
	AuctionResult = core.Result
	// Capped is the clock's price update rule, the paper's Equation (3):
	// g = min(α·z⁺, δe). The zero value selects the default step.
	Capped = core.Capped
	// SystemViolation is one violated SYSTEM constraint.
	SystemViolation = core.SystemViolation
)

// ErrNoConvergence reports a clock auction that hit its round limit.
var ErrNoConvergence = core.ErrNoConvergence

// NewAuction validates bids and builds an auction.
func NewAuction(reg *Registry, bids []*Bid, cfg AuctionConfig) (*Auction, error) {
	return core.NewAuction(reg, bids, cfg)
}

// CheckSystem verifies an outcome against the SYSTEM constraints (1)–(6)
// of Section III.B.
func CheckSystem(bids []*Bid, res *AuctionResult, eps float64) []SystemViolation {
	return core.CheckSystem(bids, res, eps)
}

// Premium computes γ_u (Equation 5, Section V.C).
func Premium(limit, payment float64) float64 { return core.Premium(limit, payment) }

// Reserve pricing (Section IV).
type (
	// WeightFn maps utilization to a price multiple.
	WeightFn = reserve.WeightFn
	// ReservePricer computes p̃ = φ(ψ)·c.
	ReservePricer = reserve.Pricer
)

// The Figure 2 weighting curves.
var (
	ExpSteep   = reserve.ExpSteep
	ExpMild    = reserve.ExpMild
	Hyperbolic = reserve.Hyperbolic
)

// NewReservePricer builds a pricer with the given weighting curve.
func NewReservePricer(fn WeightFn) *ReservePricer { return reserve.NewPricer(fn) }

// Cluster substrate.
type (
	// Fleet is the planet-wide set of clusters plus the quota ledger.
	Fleet = cluster.Fleet
	// Cluster is a named pool of machines.
	Cluster = cluster.Cluster
	// Machine is one host.
	Machine = cluster.Machine
	// Usage is a quantity across CPU/RAM/Disk.
	Usage = cluster.Usage
	// Task is one schedulable unit.
	Task = cluster.Task
	// Scheduler places tasks on machines.
	Scheduler = cluster.Scheduler
)

// NewFleet returns an empty fleet.
func NewFleet() *Fleet { return cluster.NewFleet() }

// NewCluster returns an empty cluster with the given scheduler (nil
// selects first-fit).
func NewCluster(name string, s Scheduler) *Cluster { return cluster.New(name, s) }

// Trading platform (Section V).
type (
	// Exchange is the trading platform. All methods are safe for
	// concurrent use; the order and account books are striped
	// (ExchangeConfig.Shards, default DefaultExchangeShards) so order
	// entry scales across CPUs instead of serializing on one book lock.
	// See MarketLoop for epoch-batched settlement.
	Exchange = market.Exchange
	// ExchangeConfig parameterizes it.
	ExchangeConfig = market.Config
	// Order is one submitted bid or offer.
	Order = market.Order
	// AuctionRecord summarizes one settled market auction.
	AuctionRecord = market.AuctionRecord
	// ClusterSummary is one market-summary row (Figure 3).
	ClusterSummary = market.ClusterSummary
	// Product is a catalog entry for two-step bid entry (Figure 4).
	Product = market.Product
	// MarketLoop settles the order book in one clock auction per epoch.
	MarketLoop = market.Loop
	// MarketLoopStats counts the loop's ticks, auctions, and failures.
	MarketLoopStats = market.LoopStats
)

// ErrNoOpenOrders reports an auction attempted over an empty book.
var ErrNoOpenOrders = market.ErrNoOpenOrders

// DefaultExchangeShards is the book stripe count an Exchange uses when
// ExchangeConfig.Shards is zero.
const DefaultExchangeShards = market.DefaultShards

// NewExchange wires an exchange to a fleet.
func NewExchange(f *Fleet, cfg ExchangeConfig) (*Exchange, error) {
	return market.NewExchange(f, cfg)
}

// NewMarketLoop builds an epoch-batched auction loop over the exchange:
// orders accumulate during each epoch and settle in one clock auction
// per tick. Run it with Loop.Run(ctx) or use Exchange.Serve.
func NewMarketLoop(ex *Exchange, epoch time.Duration) (*MarketLoop, error) {
	return market.NewLoop(ex, epoch)
}

// NewWebUI returns the trading platform's HTTP handler (Figures 3–5).
func NewWebUI(ex *Exchange) *webui.Server { return webui.New(ex) }

// Federated multi-region market (beyond the paper; see DESIGN.md).
type (
	// Region is one autonomous regional market: an Exchange over its own
	// fleet, namespaced by region.
	Region = federation.Region
	// Federation fronts N regions behind one API, routing bids to their
	// home exchange and splitting cross-region XOR bids into per-region
	// legs ordered cheapest-first by the gossip price board.
	Federation = federation.Federation
	// FedOrder is one federated order with its routing legs; at most one
	// leg ever wins.
	FedOrder = federation.FedOrder
	// RegionQuote is one region's price-board entry.
	RegionQuote = federation.Quote
	// FederationStats counts the router's outcomes.
	FederationStats = federation.Stats
)

// NewRegion wires a regional exchange to its fleet.
func NewRegion(name string, f *Fleet, cfg ExchangeConfig) (*Region, error) {
	return federation.NewRegion(name, f, cfg)
}

// NewFederation assembles regions into one federated market. Run it with
// Federation.Serve(ctx, epoch): every region settles its own epoch
// batches concurrently.
func NewFederation(regions ...*Region) (*Federation, error) {
	return federation.NewFederation(regions...)
}

// NewFederatedWebUI returns the federation's global HTTP front end: the
// planet-wide market summary with per-region drill-downs under
// /region/<name>/.
func NewFederatedWebUI(f *Federation) *webui.FedServer { return webui.NewFederated(f) }

// Durable event log and crash recovery (beyond the paper; see the
// "Event log & durability" section of DESIGN.md). An Exchange built with
// ExchangeConfig.Journal set writes every state change to an append-only
// WAL before applying it, and periodically snapshots; after a crash,
// OpenJournal returns the surviving snapshot-plus-tail and
// RecoverExchange deterministically replays it into a fresh exchange.
type (
	// Journal is the append-only write-ahead log: CRC-framed records in
	// segment files, group-commit fsync, snapshot-and-truncate.
	Journal = journal.Journal
	// JournalOptions tunes a journal, chiefly the group-commit window
	// (FsyncEvery: how many appended batches may share one fsync).
	JournalOptions = journal.Options
	// JournalRecovery is everything that survived on disk: the newest
	// intact snapshot and the record tail appended after it.
	JournalRecovery = journal.Recovery
)

// OpenJournal opens (or creates) the journal in dir, locking it against
// concurrent opens, and scans what survived. A torn tail — a record cut
// mid-write by the crash — is truncated, never replayed.
func OpenJournal(dir string, opts JournalOptions) (*Journal, *JournalRecovery, error) {
	return journal.Open(dir, opts)
}

// RecoverExchange rebuilds an exchange from a journal recovery: snapshot
// restore, tail replay, then the full invariant check — a recovery that
// would serve a corrupt book (unbalanced ledger, negative balance,
// over-committed capacity) fails instead of starting. The fleet must be
// rebuilt by the caller exactly as the crashed process built it; fleet
// construction is configuration, not market state, so it is not
// journaled. cfg.Journal should be the freshly reopened journal so the
// recovered exchange continues appending where the crashed one stopped.
func RecoverExchange(f *Fleet, cfg ExchangeConfig, rec *JournalRecovery) (*Exchange, error) {
	ex, err := market.Recover(f, cfg, rec)
	if err != nil {
		return nil, err
	}
	if vs := invariant.CheckExchange(ex); len(vs) > 0 {
		return nil, fmt.Errorf("clustermarket: recovered exchange violates %d invariant(s); first: %s", len(vs), vs[0])
	}
	return ex, nil
}

// RecoverRegion is RecoverExchange for one federated region: the
// recovered exchange keeps the region's product namespace. Each region
// journals its own book; recover every region, then reassemble the
// federation with NewFederation and restore the router's own journal.
func RecoverRegion(name string, f *Fleet, cfg ExchangeConfig, rec *JournalRecovery) (*Region, error) {
	r, err := federation.RecoverRegion(name, f, cfg, rec)
	if err != nil {
		return nil, err
	}
	if vs := invariant.CheckExchange(r.Exchange()); len(vs) > 0 {
		return nil, fmt.Errorf("clustermarket: recovered region %q violates %d invariant(s); first: %s", name, len(vs), vs[0])
	}
	return r, nil
}

// Explicitly-optimizing allocation (Section III.C.4 / VI future work).
type (
	// Objective selects what the optimizing allocator maximizes.
	Objective = optimize.Objective
	// OptimizedResult is an optimizer outcome settled at reserve prices.
	OptimizedResult = optimize.Result
)

// Optimizer objectives from Section III.B.
const (
	TotalSurplus    = optimize.TotalSurplus
	TotalTradeValue = optimize.TotalTradeValue
)

// OptimizeGreedy computes a welfare-oriented allocation directly, without
// price discovery. See the package documentation for why the paper's
// system uses the clock auction instead.
func OptimizeGreedy(reg *Registry, bids []*Bid, reserve Vector, obj Objective) (*OptimizedResult, error) {
	return optimize.Greedy(reg, bids, reserve, obj)
}

// OptimizeExact computes the welfare-optimal allocation by branch and
// bound; limited to small instances.
func OptimizeExact(reg *Registry, bids []*Bid, reserve Vector, obj Objective) (*OptimizedResult, error) {
	return optimize.Exact(reg, bids, reserve, obj)
}

// EvaluateWelfare scores any allocation (for instance a clock auction's)
// under an optimizer objective. chosen[i] is the index of the bundle
// bids[i] was granted (AuctionResult.ChosenBundle), −1 for none.
func EvaluateWelfare(bids []*Bid, chosen []int, reserve Vector, obj Objective) (float64, error) {
	return optimize.EvaluateWelfare(bids, chosen, reserve, obj)
}

// UnfairnessReport counts the SYSTEM fairness constraints (3)–(5) an
// optimized outcome violates at the given uniform prices.
func UnfairnessReport(bids []*Bid, res *OptimizedResult, prices Vector) int {
	return optimize.UnfairnessReport(bids, res, prices)
}

// Streaming telemetry (beyond the paper; the "Telemetry & firehose"
// section of DESIGN.md). An exchange built with
// ExchangeConfig.Telemetry set — and a federation after
// AttachTelemetry — publishes every state-change event to a bounded,
// non-blocking firehose; the web front ends additionally serve a
// Prometheus exposition at /metrics, a health probe at /healthz, and a
// live SSE feed at /api/events.
type (
	// Firehose is the bounded pub/sub event bus: publishers never block,
	// slow subscribers lose oldest-first, and with no subscriber a
	// publish is two atomic loads.
	Firehose = telemetry.Firehose
	// TelemetryEvent is one published event: a process-wide sequence
	// number, the publishing subsystem ("market", "fed", "scenario"), the
	// event kind, and the typed payload.
	TelemetryEvent = telemetry.Event
	// TelemetrySubscription is one subscriber's bounded event queue.
	TelemetrySubscription = telemetry.Subscription
	// Health is the shared state behind a /healthz probe.
	Health = telemetry.Health
	// HealthSnapshot is one consistent probe read, JSON-ready.
	HealthSnapshot = telemetry.HealthSnapshot
	// Exposition accumulates one Prometheus text-format scrape.
	Exposition = telemetry.Exposition
	// ExchangeMetrics is the exchange's monotonic counter snapshot.
	ExchangeMetrics = market.Metrics
)

// NewFirehose returns an empty firehose ready for Publish and
// Subscribe.
func NewFirehose() *Firehose { return telemetry.NewFirehose() }

// NewHealth returns a health record anchored at the given start time.
func NewHealth(start time.Time) *Health { return telemetry.NewHealth(start) }

// Scenario engine & invariant kernel (beyond the paper; DESIGN.md).

type (
	// ScenarioConfig parameterizes a scenario run (seed, epochs, and the
	// journal, telemetry and fault layers it attaches).
	ScenarioConfig = scenario.Config
	// ScenarioReport is a completed run: per-epoch summaries plus any
	// invariant violations; Fingerprint() is bit-stable per seed.
	ScenarioReport = scenario.Report
	// MarketScenario is one scripted multi-epoch event timeline.
	MarketScenario = scenario.Scenario
	// MarketBackend is the market under test: a federation of one
	// planet-wide market ("exchange") or of one market per region
	// ("federation"), behind one topology of regions r1…rN.
	MarketBackend = scenario.Backend
	// InvariantViolation is one broken market invariant.
	InvariantViolation = invariant.Violation
)

// Scenarios returns the named scenario catalog (diurnal, flash-crowd,
// churn, region-outage, adaptive-learning, trader-storm).
func Scenarios() []*MarketScenario { return scenario.Catalog() }

// LookupScenario returns one catalog scenario by name.
func LookupScenario(name string) (*MarketScenario, error) { return scenario.Lookup(name) }

// NewScenarioBackend builds the "exchange" kind (one market holding
// every cluster) or the "federation" kind (one market per region) for
// the config. Use the same config with RunScenario.
func NewScenarioBackend(kind string, cfg ScenarioConfig) (*MarketBackend, error) {
	return scenario.NewBackend(kind, cfg)
}

// RunScenario drives a backend through a scenario: seed-reproducible
// epochs, with the shared invariant kernel checked after every one.
func RunScenario(sc *MarketScenario, b *MarketBackend, cfg ScenarioConfig) (*ScenarioReport, error) {
	return scenario.Run(sc, b, cfg)
}

// ReconstructScenarioReport rebuilds a scenario report purely from the
// firehose event stream of a run — the losslessness proof for the
// telemetry pipeline: its Fingerprint must equal the live run's.
func ReconstructScenarioReport(scenarioName, backendKind string, seed int64, events []TelemetryEvent) (*ScenarioReport, error) {
	return scenario.ReconstructReport(scenarioName, backendKind, seed, events)
}

// CheckMarketInvariants runs the shared invariant kernel over a
// quiescent exchange: balanced double-entry ledger, non-negative
// balances, commitments matching open exposure, per-auction wins within
// capacity, clearing prices at or above reserve, consistent counters.
func CheckMarketInvariants(ex *Exchange) []InvariantViolation { return invariant.CheckExchange(ex) }

// CheckFederationInvariants runs the kernel over every region plus the
// cross-region XOR routing invariants.
func CheckFederationInvariants(f *Federation) []InvariantViolation {
	return invariant.CheckFederation(f)
}

// Bidding language (Section II).

// ParseBid reads one bid in the TBBL-style text syntax, e.g.
//
//	bid "team" limit 120 { oneof { all { r1/cpu:40 r1/ram:96 } all { r2/cpu:40 r2/ram:96 } } }
func ParseBid(src string) (*bidlang.Bid, error) { return bidlang.Parse(src) }

// ParseBids reads a sequence of bids.
func ParseBids(src string) ([]*bidlang.Bid, error) { return bidlang.ParseAll(src) }

// CompileBid flattens a parsed bidlang bid into a clock-auction bid
// against the registry.
func CompileBid(b *bidlang.Bid, reg *Registry) (*Bid, error) {
	bundles, err := b.Flatten(reg)
	if err != nil {
		return nil, err
	}
	return &Bid{User: b.User, Bundles: bundles, Limit: b.Limit}, nil
}

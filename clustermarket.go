// Package clustermarket is a Go implementation of the market-based
// resource provisioning system from "Using a Market Economy to Provision
// Compute Resources Across Planet-wide Clusters" (Stokely, Winget, Keyes,
// Grimes, Yolken — IPPS/IPDPS 2009).
//
// The package re-exports the stable public surface of the internal
// packages:
//
//   - the ascending clock auction (Section III): Bid, Auction,
//     AuctionConfig, AuctionResult, the Capped price step, and
//     feasibility checking against the SYSTEM constraints;
//   - the cluster substrate: Fleet, Cluster, schedulers, quotas;
//   - the trading platform (Section V): Exchange, whose reserve prices
//     are congestion-weighted (Section IV), and its durable journal;
//   - the explicitly optimizing allocator (Sections III.C.4 and VI);
//   - the TBBL-style bidding language (Section II) for textual bids.
//
// Example is the minimal flow; Example_migration, Example_arbitrage and
// Example_optimizer reproduce Sections V.B, V.C and III.C.4. DESIGN.md
// describes the implementation layer by layer.
package clustermarket

import (
	"fmt"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/optimize"
	"clustermarket/internal/resource"
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
	CPU  = resource.CPU
	RAM  = resource.RAM
	Disk = resource.Disk
)

// NewRegistry returns a registry over the given pools.
func NewRegistry(pools ...Pool) *Registry { return resource.NewRegistry(pools...) }

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

// NewAuction validates bids and builds an auction.
func NewAuction(reg *Registry, bids []*Bid, cfg AuctionConfig) (*Auction, error) {
	return core.NewAuction(reg, bids, cfg)
}

// CheckSystem verifies an outcome against the SYSTEM constraints (1)–(6)
// of Section III.B.
func CheckSystem(bids []*Bid, res *AuctionResult, eps float64) []SystemViolation {
	return core.CheckSystem(bids, res, eps)
}

// Cluster substrate.
type (
	// Fleet is the planet-wide set of clusters plus the quota ledger.
	Fleet = cluster.Fleet
	// Cluster is a named pool of machines.
	Cluster = cluster.Cluster
	// Usage is a quantity across CPU/RAM/Disk.
	Usage = cluster.Usage
)

// NewFleet returns an empty fleet.
func NewFleet() *Fleet { return cluster.NewFleet() }

// NewCluster returns an empty cluster that places tasks first-fit.
func NewCluster(name string) *Cluster { return cluster.New(name, nil) }

// Trading platform (Section V).
type (
	// Exchange is the trading platform. All methods are safe for
	// concurrent use; RunAuction settles the open book in one clock
	// auction.
	Exchange = market.Exchange
	// ExchangeConfig parameterizes it.
	ExchangeConfig = market.Config
)

// NewExchange wires an exchange to a fleet.
func NewExchange(f *Fleet, cfg ExchangeConfig) (*Exchange, error) {
	return market.NewExchange(f, cfg)
}

// Durable event log and crash recovery (beyond the paper; see the
// "Event log & durability" section of DESIGN.md). An Exchange built with
// ExchangeConfig.Journal set writes every state change to an append-only
// WAL before applying it, and periodically snapshots; after a crash,
// OpenJournal returns the surviving snapshot-plus-tail and
// RecoverExchange deterministically replays it into a fresh exchange.
type (
	// Journal is the append-only write-ahead log: CRC-framed records in
	// one wal file, fsynced every append, rotated behind each snapshot.
	Journal = journal.Journal
	// JournalOptions names a journal's filesystem seam. Every append is
	// fsynced before it returns; an FsyncEvery above 1 is refused.
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

// Explicitly-optimizing allocation (Section III.C.4 / VI future work).
type (
	// Objective selects what the optimizing allocator maximizes.
	Objective = optimize.Objective
	// OptimizedResult is an optimizer outcome settled at reserve prices.
	OptimizedResult = optimize.Result
)

// TotalSurplus is the optimizer objective of Section III.B.
const TotalSurplus = optimize.TotalSurplus

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

// Bidding language (Section II).

// ParseBid reads one bid in the TBBL-style text syntax, e.g.
//
//	bid "team" limit 120 { oneof { all { r1/cpu:40 r1/ram:96 } all { r2/cpu:40 r2/ram:96 } } }
func ParseBid(src string) (*bidlang.Bid, error) { return bidlang.Parse(src) }

// CompileBid flattens a parsed bidlang bid into a clock-auction bid
// against the registry.
func CompileBid(b *bidlang.Bid, reg *Registry) (*Bid, error) {
	bundles, err := b.Flatten(reg)
	if err != nil {
		return nil, err
	}
	return &Bid{User: b.User, Bundles: bundles, Limit: b.Limit}, nil
}

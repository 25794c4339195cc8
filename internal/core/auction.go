package core

import (
	"errors"
	"fmt"
	"slices"

	"clustermarket/internal/resource"
)

// ErrNoConvergence is returned, together with the Result, when a lane
// ran out of Config.MaxRounds (its bids are in Result.Held). Section
// III.C.3 shows markets with traders can cycle forever; the guard
// converts that theoretical hazard into a reportable error.
var ErrNoConvergence = errors.New("core: clock auction did not converge")

// Config parameterizes one clock auction run.
type Config struct {
	// Start is p̃, the starting/reserve price vector. Section IV derives
	// it from utilization; it must be componentwise ≥ 0.
	Start resource.Vector
	// Policy is the price update function g(x, p). The zero value selects
	// DefaultPolicy.
	Policy Capped
	// MaxRounds bounds the clock. Zero selects a generous default.
	MaxRounds int
	// RecordHistory retains per-round snapshots in Result.History.
	RecordHistory bool
}

// DefaultMaxRounds bounds auctions that were not given an explicit limit.
const DefaultMaxRounds = 100000

// Round is one snapshot of the price clock.
type Round struct {
	T             int
	Prices        resource.Vector
	ExcessDemand  resource.Vector
	ActiveBidders int
}

// Result is the auction outcome: final uniform prices, each bid's settled
// bundle, and payments x_uᵀp. A win is recorded as the index of the bundle
// that won — the allocation x_u is that bundle of the bid's own rows — so
// the outcome holds nothing that grows with the registry but Prices.
type Result struct {
	// Converged is false only when a lane ran out of MaxRounds, i.e.
	// Held is non-empty; the held bids' fields then describe their lane's
	// state at the final round, and every other bid's its own lane's
	// clearing state.
	Converged bool
	Rounds    int
	// Prices is the final price vector p.
	Prices resource.Vector
	// Payments[i] is x_uᵀp; negative values are amounts received by
	// sellers. Zero for losers.
	Payments []float64
	// Held lists, ascending, the bids whose lane ran out of rounds. A
	// lane shares no pool and no bid with another, so the other lanes'
	// outcomes stand on their own.
	Held []int
	// ChosenBundle[i] is the index of bids[i]'s settled bundle — x_u is
	// that bundle (Bid.Row sparse, Bid.Bundle dense) — or −1 when the bid
	// lost. Premium statistics for vector-limit bids must be computed
	// against this bundle's limit (Bid.LimitFor), not the scalar Limit,
	// which is ignored when BundleLimits is set.
	ChosenBundle []int
	// DropRound[i] is the round at which bid i last left the auction, or
	// −1 if it was active at the end. A bidder that is priced out and
	// later re-enters (sellers and traders can: rising prices improve
	// their receipts) has its drop round cleared on re-entry, so the
	// diagnostic always agrees with History.ActiveBidders.
	DropRound []int
	// History holds per-round snapshots when Config.RecordHistory is set.
	History []Round
	// Clock counts what the round loops did to get here (ReferenceRun
	// leaves it zero). It is a diagnostic, not part of the outcome.
	Clock ClockStats

	// bids are the auction's bids, which ChosenBundle indexes into.
	bids []*Bid
}

// IsWinner reports whether bid i won.
func (r *Result) IsWinner(i int) bool { return r.ChosenBundle[i] >= 0 }

// Allocation returns x_u for bid i as an R-component vector, nil when
// the bid lost. It is built on demand (Bid.Bundle), for callers that
// want the dense form; Bid.Row of ChosenBundle[i] is the same allocation
// without the vector.
func (r *Result) Allocation(i int) resource.Vector {
	if !r.IsWinner(i) {
		return nil
	}
	return r.bids[i].Bundle(r.ChosenBundle[i])
}

// Auction couples a registry, the sealed bids, and a configuration.
//
// An Auction may be run repeatedly, but its runs must not overlap: the
// clock's working vectors live in per-lane scratch buffers, allocated
// with the lane and reused afterwards, so a round performs zero heap
// allocations. Concurrent auctions each need their own Auction.
type Auction struct {
	// bids are the sealed bids in packed form: a booked bid itself, or a
	// private packed copy of one that still carries Bundles.
	bids []*Bid
	cfg  Config
	// lanes caches the component lanes Run clocks (see partition.go): at
	// least one, derived from the frozen bid set, built on first use and
	// shared across Run calls. Each owns its kernel and round-loop scratch.
	lanes []*lane
	// laneOf[i] is bid i's lane, nil when the market is one whole lane.
	laneOf []int32
}

// NewAuction validates the inputs. Bids are held by reference; they must not be mutated during Run.
func NewAuction(reg *resource.Registry, bids []*Bid, cfg Config) (*Auction, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, errors.New("core: auction needs a non-empty registry")
	}
	if len(bids) == 0 {
		return nil, errors.New("core: auction needs at least one bid")
	}
	if cfg.Policy == (Capped{}) {
		cfg.Policy = DefaultPolicy()
	}
	if err := validatePolicy(cfg.Policy); err != nil {
		return nil, err
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if len(cfg.Start) != reg.Len() {
		return nil, fmt.Errorf("core: start prices have %d components, registry has %d pools", len(cfg.Start), reg.Len())
	}
	if err := cfg.Start.Validate(); err != nil {
		return nil, fmt.Errorf("core: start prices: %v", err)
	}
	if !cfg.Start.AllNonNegative(0) {
		return nil, errors.New("core: start prices must be nonnegative")
	}
	// A booked bid's rows are validated and read in place; a bid that
	// still carries Bundles is packed into a private copy, once — bids
	// are never written. Nothing else is built here: the lanes copy the
	// rows into their kernels on first use.
	a := &Auction{bids: bids, cfg: cfg}
	var few [4]sparseBundle // keeps the usual few-cluster XOR off the heap
	for i, b := range bids {
		if len(b.Bundles) > 0 {
			if &a.bids[0] == &bids[0] { // the first copy: stop aliasing the caller's slice
				a.bids = slices.Clone(bids)
			}
			cp := *b
			cp.Pack()
			b, a.bids[i] = &cp, &cp
		}
		if err := b.validate(reg.Len(), &b.rows, b.rows.appendBundles(few[:0])); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Classes tallies the bidder classes, used to predict convergence per
// Section III.C.3: with no traders (every participant a pure buyer or a
// pure seller) the clock is guaranteed to converge.
func (a *Auction) Classes() (buyers, sellers, traders int) {
	var few [4]sparseBundle
	for _, b := range a.bids {
		switch classOf(b.rows.appendBundles(few[:0])) {
		case PureBuyer:
			buyers++
		case PureSeller:
			sellers++
		default:
			traders++
		}
	}
	return
}

// Run executes Algorithm 1: collect proxy demands, stop when excess
// demand is nonpositive, otherwise raise prices and repeat. It always
// returns a fresh Result; when a lane ran out of rounds the error is
// ErrNoConvergence and that lane's bids are in Result.Held. The market
// is clocked as independent component lanes (see partition.go), each on
// the incremental round loop (see incremental.go); the outcome is
// bit-identical to ReferenceRun's.
func (a *Auction) Run() (*Result, error) { return a.runLanes(a.laneList(), a.newResult()) }

// newResult returns a Result for the auction's bids, each slice sized
// exactly: prices at the reserve and no bid dropped.
// The clock writes its outcome straight into it, so a settled Result
// never aliases the auction's scratch.
func (a *Auction) newResult() *Result {
	n := len(a.bids)
	res := &Result{
		Prices:       a.cfg.Start.Clone(),
		Payments:     make([]float64, n),
		ChosenBundle: make([]int, n),
		DropRound:    make([]int, n),
		bids:         a.bids,
	}
	for i := range res.DropRound {
		res.DropRound[i] = -1
	}
	return res
}

// appendRound records one history snapshot.
//
//marketlint:allocfree
func appendRound(h []Round, t int, p, z resource.Vector, active int) []Round {
	//marketlint:allow allocfree history is recorded only when Config.RecordHistory asks for it
	return append(h, Round{T: t, Prices: p.Clone(), ExcessDemand: z.Clone(), ActiveBidders: active})
}

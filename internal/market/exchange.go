package market

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/stats"
	"clustermarket/internal/telemetry"
)

// OperatorAccount is the reserved account name under which the system
// operator sells spare capacity ("the company itself may be mapped into
// clock auction participants", Section V.A).
const OperatorAccount = "operator"

// ErrNoOpenOrders is returned by RunAuction and PreliminaryPrices when
// the order book is empty. The epoch loop treats it as an idle tick.
var ErrNoOpenOrders = errors.New("market: no open orders")

// OrderStatus tracks an order through its life cycle.
type OrderStatus int

const (
	// Open orders await the next auction.
	Open OrderStatus = iota
	// Won orders settled with an allocation.
	Won
	// Lost orders were priced out.
	Lost
	// Cancelled orders were withdrawn before settlement.
	Cancelled
	// Unsettled orders were retired after too many non-convergent
	// clocks: their batch never found clearing prices, so they settled
	// nothing. Without this cap a cycling trader pair would rejoin every
	// epoch and livelock the whole market.
	Unsettled
)

func (s OrderStatus) String() string {
	switch s {
	case Open:
		return "open"
	case Won:
		return "won"
	case Lost:
		return "lost"
	case Cancelled:
		return "cancelled"
	case Unsettled:
		return "unsettled"
	default:
		return fmt.Sprintf("OrderStatus(%d)", int(s))
	}
}

// Order is one submitted bid or offer.
type Order struct {
	ID     int
	Team   string
	Bid    *core.Bid
	Status OrderStatus
	// Auction is the auction number that settled the order (−1 while
	// open).
	Auction int
	// Attempts counts the auctions that held the order open because
	// its lane ran out of rounds.
	Attempts int
	// Bundle is the index of the bundle that won — the order's allocation
	// is that bundle of its own bid, read with Grant (sparse) or Allocation
	// (dense) — and −1 unless the order is Won. Payment is what it paid.
	Bundle  int
	Payment float64

	// inAuction marks an order whose batch is being settled by an
	// in-flight clock. Such orders cannot be cancelled: a winner that
	// vanished mid-clock would break quota conservation (its
	// counterparties' allocations were computed assuming its
	// contribution). Guarded by the order's shard lock.
	inAuction bool
}

// Side reports whether the order is a pure bid (+1), pure offer (−1), or
// trade (0), from the bundle directions.
func (o *Order) Side() int {
	switch o.Bid.Class() {
	case core.PureBuyer:
		return +1
	case core.PureSeller:
		return -1
	default:
		return 0
	}
}

// Grant returns the order's allocation in sparse form: the winning
// bundle's pool indices, ascending, and the quantities beside them
// (negative where the order sold). The slices are the bid's own rows —
// shared, read-only — and nil unless the order is Won.
//
//marketlint:allocfree
func (o *Order) Grant() (pools []int32, qty []float64) {
	if o.Status != Won {
		return nil, nil
	}
	return o.Bid.Row(o.Bundle)
}

// Allocation returns the order's allocation as an R-component vector,
// built on demand from the winning bundle; nil unless the order is Won.
func (o *Order) Allocation() resource.Vector {
	if o.Status != Won {
		return nil
	}
	return o.Bid.Bundle(o.Bundle)
}

// bookedOrder is an order and its bid in one allocation: with the bid's
// two pointer-free row slabs that is all a booked order keeps.
type bookedOrder struct {
	Order
	bid core.Bid
}

// newBookedOrder co-allocates an order with a copy of bid.
func newBookedOrder(o Order, bid *core.Bid) *bookedOrder {
	bo := &bookedOrder{Order: o, bid: *bid}
	bo.Bid = &bo.bid
	return bo
}

// snapshot copies the order, including a copy of the Bid struct so a
// caller scribbling on snapshot.Bid fields cannot reach the booked bid.
// The bid's rows remain shared: they are frozen at submit time — the
// allocation of a won order is one of them — and must be treated as
// read-only by callers.
func (o *Order) snapshot() *Order {
	if o.Bid == nil {
		c := *o
		return &c
	}
	return &newBookedOrder(*o, o.Bid).Order
}

// LedgerEntry is one double-entry billing record.
type LedgerEntry struct {
	Seq     int
	Auction int
	Team    string
	// Amount is the balance change (negative = paid out).
	Amount float64
	Memo   string
}

// AuctionRecord summarizes one settled auction for the market front end
// and the Table I statistics.
type AuctionRecord struct {
	Number    int
	Reserve   resource.Vector
	Prices    resource.Vector
	Rounds    int
	Converged bool
	// Orders counted at settlement time.
	Submitted, Settled int
	// Premiums holds γ_u for each settled order (Equation 5).
	Premiums []float64
}

// PremiumMedian returns the median of γ_u for the auction.
func (a *AuctionRecord) PremiumMedian() float64 { return stats.Median(a.Premiums) }

// PremiumMean returns the mean of γ_u for the auction.
func (a *AuctionRecord) PremiumMean() float64 { return stats.Mean(a.Premiums) }

// Config parameterizes an Exchange.
type Config struct {
	// InitialBudget is granted to each newly opened account.
	InitialBudget float64
	// MaxRounds bounds each clock; zero selects core.DefaultMaxRounds.
	MaxRounds int
	// Journal, when non-nil, makes the exchange durable: every state
	// change is appended to the write-ahead log before it is applied, and
	// a snapshot is written every SnapshotEvery auctions. Nil keeps the
	// pure in-memory behavior with zero hot-path cost.
	Journal *journal.Journal
	// SnapshotEvery is the auction interval between journal snapshots
	// (default DefaultSnapshotEvery; negative disables snapshots). Ignored
	// without Journal.
	SnapshotEvery int
	// Telemetry, when non-nil, receives every state-change event the
	// journal would — whether or not a journal is attached — published
	// to the firehose under source "market". With no subscriber the
	// publish path is one atomic load and a branch; events are not even
	// materialized.
	Telemetry *telemetry.Firehose
}

// marketableFraction is the share of each pool's *free* capacity the
// operator offers for sale each auction.
const marketableFraction = 0.8

// maxAuctionAttempts is how many non-convergent clocks an open order
// survives before it is retired as Unsettled. The cap keeps one cycling
// trader pair from rejoining every epoch and livelocking the market.
const maxAuctionAttempts = 3

// DefaultSnapshotEvery is the journal snapshot cadence, in auctions, an
// Exchange uses when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 64

func (c *Config) applyDefaults() {
	if c.InitialBudget == 0 {
		c.InitialBudget = 10000
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
}

// Exchange is the trading platform: accounts, an order book, and the
// periodic clock auction that settles it.
//
// All methods are safe for concurrent use. The book is striped so the
// order pipeline is contention-free (the paper's one-auctioneer,
// many-traders split, scaled out):
//
//   - The order book is split into shardCount stripes keyed by order
//     ID, the account book into stripes keyed by team. Submits, cancels,
//     status polls, and balance reads in different stripes never touch
//     the same lock, and every stripe's critical section is O(1).
//   - The billing ledger and the auction history each have their own
//     lock; a ledger pair is posted in one critical section, so the
//     ledger sums to zero at every observable instant.
//   - An order is a Go object only while it is open. The stripe lock
//     that flips it terminal also copies it into the stripe's
//     pointer-free archive (archive.go); from then on Order, Orders and
//     the snapshot builder materialise it from the record on demand.
//   - auctionMu serializes binding auctions (one auctioneer at a time).
//     The clock itself runs without any book lock: RunAuction claims the
//     open batch stripe by stripe, iterates the clock lock-free, then
//     settles stripe by stripe. Orders submitted meanwhile simply join
//     the next epoch's batch.
//
// Settlement is atomic per account (a win's budget-commitment release
// and payment debit happen under one stripe lock, so balances can never
// be overcommitted mid-settlement) but not across the whole book: a
// reader polling during settlement may see one order Won while another
// in the same auction is still marked Open a microsecond longer. The
// post-conditions — balanced ledger, non-negative balances, conserved
// quota — hold once RunAuction returns, which the race stress tests
// assert.
//
// Read accessors (Orders, OpenOrders, Ledger, History, …) return
// snapshots rather than aliases of internal slices; the frozen,
// write-once data a snapshot carries (bid rows, allocations,
// auction records) is shared and must be treated as read-only.
type Exchange struct {
	cfg     Config
	fleet   *cluster.Fleet
	reg     *resource.Registry
	catalog *Catalog
	pricer  *reserve.Pricer

	// auctionMu serializes RunAuction: one auctioneer at a time.
	auctionMu sync.Mutex
	// settleMu keeps racing writers out between the log and the apply
	// of every settlement-phase event (apply.go): the settlement wave,
	// Disburse, PlaceOrder, EvictTask, and snapshots, which
	// must never stamp an event without its effects. RunAuction takes
	// it after the clock completes, so the others wait out a
	// settlement — not an entire clock run.
	// Lock order: auctionMu before settleMu; shard locks are leaves.
	settleMu sync.Mutex

	// submitSeq spreads order entry round-robin across the order stripes;
	// for serial traffic this reproduces the unsharded book's sequential
	// ID assignment exactly.
	submitSeq     atomic.Uint64
	orderShards   [shardCount]orderShard
	accountShards [shardCount]accountShard

	// ledger is the billing ledger, pointer-free records behind its own
	// lock (archive.go).
	ledger ledgerBook

	histMu  sync.RWMutex
	history []*AuctionRecord
	// settledTotal sums Settled over history, kept by appendHistory so a
	// dashboard's totals do not cost a walk of every epoch ever run.
	settledTotal int

	// journal, when non-nil, receives every state change as an event
	// before it is applied (see event.go); fire (possibly nil) receives
	// the same events for live subscribers; delta tracks how PlaceOrder
	// and EvictTask have diverged the fleet from its as-built state so
	// snapshots can reproduce it.
	journal *journal.Journal
	fire    *telemetry.Firehose
	// metrics is the always-on atomic counter block behind /metrics;
	// counting is lock-free and increments happen on the live path only
	// (never during replay), so a recovered process restarts its
	// counters — the standard Prometheus counter-reset contract.
	metrics exchangeMetrics
	delta   fleetDelta
}

// NewExchange wires an exchange to a fleet. The registry is derived from
// the fleet's clusters.
func NewExchange(fleet *cluster.Fleet, cfg Config) (*Exchange, error) {
	if fleet == nil {
		return nil, errors.New("market: nil fleet")
	}
	cfg.applyDefaults()
	if !positiveFinite(cfg.InitialBudget) {
		return nil, fmt.Errorf("market: initial budget must be positive and finite, got %g", cfg.InitialBudget)
	}
	reg := fleet.Registry()
	if reg.Len() == 0 {
		return nil, errors.New("market: fleet has no clusters")
	}
	e := &Exchange{
		cfg:     cfg,
		fleet:   fleet,
		reg:     reg,
		catalog: StandardCatalog(),
		pricer:  reserve.NewPricer(reserve.ExpSteep),
	}
	for i := range e.orderShards {
		e.orderShards[i].width = int32(reg.Len())
	}
	for i := range e.accountShards {
		e.accountShards[i].accounts = make(map[string]*account)
	}
	e.accountShardFor(OperatorAccount).accountLocked(OperatorAccount)
	e.journal = cfg.Journal
	e.fire = cfg.Telemetry
	return e, nil
}

// positiveFinite reports whether x is a usable amount of money: above
// zero, and neither NaN nor +Inf, either of which would poison every
// balance and ledger sum it reached.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// Registry returns the exchange's pool registry.
func (e *Exchange) Registry() *resource.Registry { return e.reg }

// Catalog returns the product catalog.
func (e *Exchange) Catalog() *Catalog { return e.catalog }

// Fleet returns the underlying fleet.
func (e *Exchange) Fleet() *cluster.Fleet { return e.fleet }

// OpenAccount creates a team account with the configured initial budget
// ("engineering teams were given budget dollars", Section V).
func (e *Exchange) OpenAccount(team string) error {
	if team == "" || team == OperatorAccount {
		return fmt.Errorf("market: invalid team name %q", team)
	}
	as := e.accountShardFor(team)
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.accounts[team] != nil {
		return fmt.Errorf("market: account %q exists", team)
	}
	// The event captures the granted balance, so replay is independent of
	// the recovering process's configured budget.
	if e.materializing() {
		if err := e.emitEvent(&Event{Kind: EvAccountOpened, Team: team, Balance: e.cfg.InitialBudget}); err != nil {
			return err
		}
	}
	as.accounts[team] = &account{team: team, balance: e.cfg.InitialBudget}
	return nil
}

// Balance returns the team's budget balance.
func (e *Exchange) Balance(team string) (float64, error) {
	as := e.accountShardFor(team)
	as.mu.Lock()
	defer as.mu.Unlock()
	a := as.accounts[team]
	if a == nil {
		return 0, fmt.Errorf("market: no account %q", team)
	}
	return a.balance, nil
}

// Submit places an order for team with the given bid. Buy-side limits
// must be covered by the team's balance. The bid and its vectors are
// only read: the booked order carries the bundles' packed rows (a −0
// component is booked as absent), built here, so the caller is free to
// reuse both once Submit returns. It returns the order's id (-1 on a
// refusal); poll Order/Orders for settlement status.
func (e *Exchange) Submit(team string, bid *core.Bid) (int, error) {
	if bid == nil {
		return -1, e.rejected(errors.New("market: nil bid"))
	}
	bo := newBookedOrder(Order{}, bid)
	bo.bid.Pack() // packing is the defensive copy of the vectors
	bo.bid.BundleLimits = append([]float64(nil), bid.BundleLimits...)
	return e.submitOwned(team, "", bo)
}

// submitOwned books an order whose bid the exchange owns outright and
// nobody else can see yet: rows only, the one form the bid has from
// here to the archive — validation, every clock, the partition remap,
// events and snapshots all read it. A bid without a user is named after
// the team, or team/product when product is set. It returns the booked
// order's id.
func (e *Exchange) submitOwned(team, product string, bo *bookedOrder) (int, error) {
	b := &bo.bid

	// Budget pre-check on the team's account stripe, without committing.
	// MaxLimit is the bid's worst-case payment exposure: the scalar
	// Limit, or the largest per-bundle limit for vector-π bids. Checking
	// here keeps a rejected submit from advancing the round-robin stripe
	// pointer, so serial traffic reproduces the unsharded book's ID
	// sequence exactly; and it keeps the account stripe out of the order
	// stripe's critical section for a refused bid. The account record it
	// resolves is the one the re-check below reads: records are never
	// deleted.
	as := e.accountShardFor(team)
	exp := b.MaxLimit()
	as.mu.Lock()
	a := as.accounts[team]
	budgetErr := fundsLocked(a, team, exp)
	if a != nil {
		team = a.team
		if b.User == "" {
			b.User = a.userLocked(product)
		}
	}
	as.mu.Unlock()
	if b.User == "" {
		// No account: the bid is refused, but named as a funded one is.
		b.User = bidUser(team, product)
	}
	// A malformed bid is reported before an unfunded one.
	if err := b.Validate(e.reg.Len()); err != nil {
		return -1, e.rejected(err)
	}
	if budgetErr != nil {
		return -1, e.rejected(budgetErr)
	}

	// Book the order into the next stripe round-robin. The ID is
	// allocated under the stripe lock from the append position, so the
	// stripe's slice stays dense and in ID order. The account stripe is
	// re-locked *nested inside* the order stripe (the global lock order —
	// account stripes are always the inner lock) so the budget re-check,
	// commitment, event log, and booking form one atomic unit: a journal
	// snapshot, which holds every stripe lock, can never observe the
	// commitment without the logged order, so replay never double-commits.
	n := len(e.orderShards)
	sIdx := int(e.submitSeq.Add(1)-1) % n
	os := &e.orderShards[sIdx]
	os.mu.Lock()
	as.mu.Lock()
	err := fundsLocked(a, team, exp)
	if err == nil && len(os.slots) >= maxStripeOrders {
		err = fmt.Errorf("market: order stripe %d is full", sIdx)
	}
	if err != nil {
		// Only a concurrent drain of the account between the pre-check and
		// here lands in this branch; the consumed stripe slot is harmless
		// (IDs derive from stripe lengths, not the rotation counter).
		as.mu.Unlock()
		os.mu.Unlock()
		return -1, e.rejected(err)
	}
	bo.Order = Order{ID: len(os.slots)*n + sIdx, Team: team, Bid: b, Status: Open, Auction: -1, Bundle: -1}
	o := &bo.Order
	if e.materializing() {
		if err := e.emitEvent(&Event{Kind: EvOrderSubmitted, OrderID: o.ID, Team: team, Bid: b}); err != nil {
			// Un-consume the round-robin slot so a post-heal resubmit
			// lands on the same stripe with the same ID (replay's
			// applyOrderSubmitted advances the counter once per *logged*
			// order, so this keeps live and replayed counters in step).
			e.submitSeq.Add(^uint64(0))
			as.mu.Unlock()
			os.mu.Unlock()
			return -1, err
		}
	}
	e.bookOrderLocked(os, a, o)
	as.mu.Unlock()
	id := o.ID
	os.mu.Unlock()
	e.metrics.submitted.Add(1)
	return id, nil
}

// releaseCommitment removes an order leaving the Open state from its
// team's running buy commitment.
//
//marketlint:allocfree
func (e *Exchange) releaseCommitment(o *Order) {
	if exp := o.Bid.MaxLimit(); exp > 0 {
		as := e.accountShardFor(o.Team)
		as.mu.Lock()
		if a := as.accounts[o.Team]; a != nil {
			a.openBuy -= exp
		}
		as.mu.Unlock()
	}
}

// settleWin atomically releases the winning order's budget commitment and
// debits its payment on the team's account stripe. Doing both under one
// lock matters: releasing first would let a racing Submit commit the
// balance the payment is about to take, driving the account negative at
// the next settlement.
func (e *Exchange) settleWin(o *Order) {
	as := e.accountShardFor(o.Team)
	as.mu.Lock()
	a := as.accountLocked(o.Team)
	if exp := o.Bid.MaxLimit(); exp > 0 {
		a.openBuy -= exp
	}
	a.balance -= o.Payment
	as.mu.Unlock()
}

// creditBalance adjusts a balance (the ledger entry is appended
// separately, batched per auction).
func (e *Exchange) creditBalance(team string, amount float64) {
	as := e.accountShardFor(team)
	as.mu.Lock()
	as.accountLocked(team).balance += amount
	as.mu.Unlock()
}

// SubmitProduct is the two-step bid entry path of Figure 4: the team
// requests qty units of a catalog product, deployable in any of the named
// clusters (XOR), with a limit price. The order's bid is user
// team/product with one bundle per named cluster, held as rows: what an
// order costs in time and memory depends on the clusters it names, not on
// the size of the planet. It returns the booked order's id; read the
// order with Order, or poll Outcome. Each name is hashed once
// (Registry.Row); an unknown cluster is refused by name.
func (e *Exchange) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (int, error) {
	var rowBuf [4]resource.PoolRow
	rows := rowBuf[:0]
	for _, cl := range clusters {
		row, _ := e.reg.Row(cl)
		rows = append(rows, row)
	}
	return e.submitRows(team, product, qty, rows, clusters, limit)
}

// SubmitProductRows is SubmitProduct for a caller that resolved its
// clusters to rows of the exchange's registry (Registry.Row) ahead of
// time — the federation's router, once per cluster when it is built: the
// same admission path, without hashing a cluster name. A row that names
// no pool, or a pool outside the registry, is refused.
func (e *Exchange) SubmitProductRows(team, product string, qty float64, rows []resource.PoolRow, limit float64) (int, error) {
	return e.submitRows(team, product, qty, rows, nil, limit)
}

// submitRows is the one admission path of a product order: one bundle per
// row, each the cover's quantity of the row's pools. names, when not nil,
// names the rows' clusters for the unknown-cluster error.
func (e *Exchange) submitRows(team, product string, qty float64, rows []resource.PoolRow, names []string, limit float64) (int, error) {
	p, err := e.catalog.Lookup(product)
	if err != nil {
		return -1, e.rejected(err)
	}
	// qty <= 0 alone would wave NaN through (every comparison with NaN
	// is false) and let it poison the cover vector; a non-positive or
	// non-finite limit would book an order that can never win but still
	// sits in every clock.
	if math.IsNaN(qty) || math.IsInf(qty, 0) || qty <= 0 {
		return -1, e.rejected(fmt.Errorf("market: quantity must be positive, got %g", qty))
	}
	if math.IsNaN(limit) || math.IsInf(limit, 0) || limit <= 0 {
		return -1, e.rejected(fmt.Errorf("market: limit must be a positive, finite number, got %g", limit))
	}
	if len(rows) == 0 {
		return -1, e.rejected(errors.New("market: no clusters named"))
	}
	// One bundle per cluster, built as (pool, quantity) rows straight
	// from the registry indices: no R-length vector exists at any point.
	// The buffers cover a four-cluster XOR without touching the heap.
	cover := p.Cover(qty)
	var endBuf [4]int
	var idBuf [12]int32
	var qtyBuf [12]float64
	ends, pools, qtys := endBuf[:0], idBuf[:0], qtyBuf[:0]
	for k, row := range rows {
		found := false
		for d, i := range row {
			if i < 0 {
				continue
			}
			if int(i) >= e.reg.Len() {
				return -1, e.rejected(fmt.Errorf("market: cluster row %d names pool %d of %d", k, i, e.reg.Len()))
			}
			pools, qtys = append(pools, i), append(qtys, cover.Get(resource.StandardDimensions[d]))
			found = true
		}
		if !found {
			if names != nil {
				return -1, e.rejected(fmt.Errorf("market: unknown cluster %q", names[k]))
			}
			return -1, e.rejected(fmt.Errorf("market: cluster row %d names no pool", k))
		}
		ends = append(ends, len(pools))
	}
	bo := newBookedOrder(Order{}, &core.Bid{Limit: limit})
	bo.bid.PackSparse(e.reg.Len(), ends, pools, qtys)
	return e.submitOwned(team, product, bo)
}

// Cancel withdraws an open order. An order whose batch is currently
// being settled by an in-flight auction cannot be withdrawn — its bid
// is already in the clock, and counterparty allocations depend on it.
func (e *Exchange) Cancel(id int) error {
	os := e.orderShardFor(id)
	if os == nil {
		return fmt.Errorf("market: no order %d", id)
	}
	j := id / len(e.orderShards)
	os.mu.Lock()
	o, rec := os.lookupLocked(j)
	switch {
	case rec != nil:
		os.mu.Unlock()
		return fmt.Errorf("market: order %d is %s", id, OrderStatus(rec.status))
	case o == nil:
		os.mu.Unlock()
		return fmt.Errorf("market: no order %d", id)
	case o.inAuction:
		os.mu.Unlock()
		return fmt.Errorf("market: order %d is in a settling auction", id)
	}
	// Log and mutate under the same stripe critical section as the check:
	// dropping the lock in between would let a claimBatch sweep the order
	// into a clock the journaled cancellation says never saw it.
	if e.materializing() {
		if err := e.emitEvent(&Event{Kind: EvOrderCancelled, OrderID: id}); err != nil {
			os.mu.Unlock()
			return err
		}
	}
	os.cancelLocked(j, o)
	os.mu.Unlock()
	e.releaseCommitment(o)
	e.metrics.cancelled.Add(1)
	return nil
}

// cancelLocked is the cancellation itself, shared with replay: the order
// goes terminal and into the archive under the one stripe lock.
//
//marketlint:allocfree
func (os *orderShard) cancelLocked(j int, o *Order) {
	o.Status = Cancelled
	os.openCount--
	os.archiveLocked(j, o)
}

// Order returns a snapshot of the order with the given id. Striped IDs
// make this O(1): shard k%N, slot k/N.
func (e *Exchange) Order(id int) (*Order, error) {
	if os := e.orderShardFor(id); os != nil {
		var d rowDecode
		os.mu.RLock()
		snap := os.viewLocked(id, id/len(e.orderShards), &d)
		os.mu.RUnlock()
		d.decode()
		if snap != nil {
			return snap, nil
		}
	}
	return nil, fmt.Errorf("market: no order %d", id)
}

// Outcome reads the two fields of an order a poller waits on — its status
// and, once Won, what it paid — in place, from the live order or its
// archived record, without materialising it; ok is false when there is no
// such order.
//
//marketlint:allocfree
func (e *Exchange) Outcome(id int) (status OrderStatus, payment float64, ok bool) {
	os := e.orderShardFor(id)
	if os == nil {
		return 0, 0, false
	}
	os.mu.RLock()
	if o, rec := os.lookupLocked(id / len(e.orderShards)); o != nil {
		status, payment, ok = o.Status, o.Payment, true
	} else if rec != nil {
		status, payment, ok = OrderStatus(rec.status), rec.payment, true
	}
	os.mu.RUnlock()
	return status, payment, ok
}

// OpenOrderCount returns the number of orders awaiting the next auction,
// summing the per-stripe counters instead of scanning the book.
func (e *Exchange) OpenOrderCount() int {
	n := 0
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		n += os.openCount
		os.mu.RUnlock()
	}
	return n
}

// OpenOrders returns snapshots of the orders awaiting the next auction,
// in ID order.
func (e *Exchange) OpenOrders() []*Order {
	var open []*Order
	ends := make([]int, len(e.orderShards))
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.open {
			if o.Status == Open {
				open = append(open, o.snapshot())
			}
		}
		os.mu.RUnlock()
		ends[s] = len(open)
	}
	if len(open) == 0 {
		return nil
	}
	return mergeByID(make([]*Order, 0, len(open)), open, ends)
}

// lastClearingPrices returns the prices of the most recent converged
// auction, or nil when none exists. A failed clock's final prices are
// not clearing prices and must never be displayed as market prices.
func (e *Exchange) lastClearingPrices() resource.Vector {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	for i := len(e.history) - 1; i >= 0; i-- {
		if e.history[i].Converged {
			return e.history[i].Prices
		}
	}
	return nil
}

// LastClearingPrices returns the settlement prices of the most recent
// converged auction, or nil before the first one.
func (e *Exchange) LastClearingPrices() resource.Vector { return e.lastClearingPrices() }

// CurrentPrices returns the market's price index: the settlement prices of
// the most recent converged auction (clearing is true), else, before the
// first one, the live reserve prices. A failed clock's prices are not
// clearing prices.
func (e *Exchange) CurrentPrices() (prices resource.Vector, clearing bool, err error) {
	if p := e.lastClearingPrices(); p != nil {
		return p, true, nil
	}
	prices, err = e.ReservePrices()
	return prices, false, err
}

// Orders returns snapshots of every order ever submitted, in ID order —
// the full-dump path used by tests and batch consumers. Interactive
// pollers should prefer OrdersTail, which bounds the copy.
func (e *Exchange) Orders() []*Order {
	if out := e.OrdersTail(math.MaxInt); len(out) > 0 {
		return out
	}
	return nil
}

// OrdersTail returns snapshots of the limit highest-ID (most recent)
// orders in ID order — the bounded read path for display pollers, which
// snapshots O(limit) orders instead of the whole book. A non-positive
// limit returns nil.
func (e *Exchange) OrdersTail(limit int) []*Order {
	if limit <= 0 {
		return nil
	}
	t := e.planTail(limit)
	out := make([]*Order, t.total)
	d := rowDecode{views: make([]pendingRows, 0, t.total)}
	e.readTail(&t, func(os *orderShard, at, id, j int) { out[at] = os.viewLocked(id, j, &d) })
	d.decode()
	return out
}

// OrderRow is what a display poller shows of an order: its identity,
// state and outcome, and the bid's MaxLimit — no rows.
type OrderRow struct {
	ID       int
	Team     string
	User     string
	Status   OrderStatus
	Auction  int
	Payment  float64
	MaxLimit float64
}

// AppendOrderRows appends to dst the rows of the limit highest-ID orders
// in ID order, as OrdersTail(limit) would show them, each read in place
// from the live order or its archived record: no order is snapshotted and
// no bid's rows are decoded. A non-positive limit appends nothing.
func (e *Exchange) AppendOrderRows(dst []OrderRow, limit int) []OrderRow {
	if limit <= 0 {
		return dst
	}
	t := e.planTail(limit)
	base := len(dst)
	dst = slices.Grow(dst, t.total)[:base+t.total]
	rows := dst[base:]
	e.readTail(&t, func(os *orderShard, at, id, j int) { rows[at] = os.rowLocked(id, j) })
	return dst
}

// orderTail is a read of the limit highest-ID orders: stripe s's share is
// its slots [from[s], size[s]).
type orderTail struct {
	size, from [shardCount]int
	total      int
}

// planTail sizes a tail read. Stripe slots are dense (slot j of stripe s
// holds ID j*n + s), so whether an ID is booked follows from the stripe
// lengths alone: walk down from the highest booked ID counting each
// stripe's share of the tail. A stripe can only trail its neighbours by a
// rejected submit's slot, so the walk visits O(limit) IDs and touches no
// order.
func (e *Exchange) planTail(limit int) orderTail {
	n := len(e.orderShards)
	var t orderTail
	top := -1
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		t.size[s] = len(os.slots)
		os.mu.RUnlock()
		if t.size[s] > 0 {
			top = max(top, (t.size[s]-1)*n+s)
		}
	}
	t.from = t.size
	for id := top; id >= 0 && t.total < limit; id-- {
		if s := id % n; id/n < t.size[s] {
			t.from[s]--
			t.total++
		}
	}
	return t
}

// readTail calls read for every order of the plan, each stripe's share
// under a single lock acquisition, with at the order's position in ID
// order among the tail's.
func (e *Exchange) readTail(t *orderTail, read func(os *orderShard, at, id, j int)) {
	n := len(e.orderShards)
	for s := range e.orderShards {
		if t.from[s] == t.size[s] {
			continue
		}
		os := &e.orderShards[s]
		os.mu.RLock()
		for j := t.from[s]; j < t.size[s]; j++ {
			read(os, t.rank(s, j), j*n+s, j)
		}
		os.mu.RUnlock()
	}
}

// rank is the number of the plan's IDs below slot j of stripe s: in
// stripe u, the slots of its share below j, and slot j too when u < s.
func (t *orderTail) rank(s, j int) int {
	r := 0
	for u, from := range t.from {
		below := j
		if u < s {
			below++
		}
		if below = min(below, t.size[u]); below > from {
			r += below - from
		}
	}
	return r
}

// Ledger materialises the billing entries — the full-dump path.
func (e *Exchange) Ledger() []LedgerEntry {
	e.ledger.mu.RLock()
	defer e.ledger.mu.RUnlock()
	return e.ledger.entriesLocked()
}

// History returns the settled auction records — the full-dump path.
// Records are immutable once appended, so only the slice is copied.
// Display pollers should prefer HistoryTail.
func (e *Exchange) History() []*AuctionRecord {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	return append([]*AuctionRecord(nil), e.history...)
}

// HistoryTail returns the most recent limit auction records, oldest
// first. A non-positive limit returns nil.
func (e *Exchange) HistoryTail(limit int) []*AuctionRecord {
	if limit <= 0 {
		return nil
	}
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	start := len(e.history) - limit
	if start < 0 {
		start = 0
	}
	return append([]*AuctionRecord(nil), e.history[start:]...)
}

// AuctionCount returns the number of auctions attempted so far (the
// length of History, without copying it).
func (e *Exchange) AuctionCount() int {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	return len(e.history)
}

// AuctionTotals returns AuctionCount and the orders settled as Won over
// all of them, in O(1).
func (e *Exchange) AuctionTotals() (auctions, settled int) {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	return len(e.history), e.settledTotal
}

// appendHistory publishes a settled auction record. Replay and the
// snapshot loader come through here too, so the totals are rebuilt.
func (e *Exchange) appendHistory(rec *AuctionRecord) {
	e.histMu.Lock()
	e.history = append(e.history, rec)
	e.settledTotal += rec.Settled
	e.histMu.Unlock()
}

// ReservePrices computes the current congestion-weighted reserve price
// vector p̃ = φ(ψ)·c from live fleet utilization (Section IV).
func (e *Exchange) ReservePrices() (resource.Vector, error) {
	util := e.fleet.UtilizationVector(e.reg)
	cost := e.fleet.CostVector(e.reg)
	return e.pricer.Prices(e.reg, util, cost)
}

// operatorSupply builds the operator's sell-side bids: a fraction of
// each pool's free capacity, one bid per cluster, each with a minimal
// ask (the reserve prices themselves do the price flooring, since the
// clock starts there). The per-cluster split matters to the sub-market
// decomposition: a single planet-wide supply bundle would weld every
// cluster into one connected component of the bidder–pool graph, while
// per-cluster offers — each cluster's capacity is a separate divisible
// supply anyway — leave regional demand free to clear on independent
// clocks. Clusters are visited in registry first-seen order, so the bid
// sequence is deterministic.
func (e *Exchange) operatorSupply() []*core.Bid {
	free := e.fleet.FreeVector(e.reg)
	var out []*core.Bid
	var pools []int32
	var supply []float64
	for _, cluster := range e.reg.Clusters() {
		pools, supply = pools[:0], supply[:0]
		for _, i := range e.reg.ClusterPools(cluster) {
			if q := free[i] * marketableFraction; q > 0 {
				pools, supply = append(pools, int32(i)), append(supply, -q)
			}
		}
		if len(pools) > 0 {
			b := &core.Bid{User: OperatorAccount, Limit: -0.000001}
			b.PackSparse(len(free), []int{len(pools)}, pools, supply)
			out = append(out, b)
		}
	}
	return out
}

// assemble snapshots the open batch and maps it, plus operator supply,
// into clock-auction bids without claiming the batch (the non-binding
// path used by PreliminaryPrices). An unclaimed order can go terminal at
// any time, so its status is read under the stripe lock; the bid behind
// it is frozen from booking on, so the clock reads it lock-free
// afterwards.
func (e *Exchange) assemble() ([]*core.Bid, error) {
	var open []*Order
	ends := make([]int, len(e.orderShards))
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.open {
			if o.Status == Open {
				open = append(open, o)
			}
		}
		os.mu.RUnlock()
		ends[s] = len(open)
	}
	if len(open) == 0 {
		return nil, ErrNoOpenOrders
	}
	return e.batchBids(mergeByID(make([]*Order, 0, len(open)), open, ends)), nil
}

// batchBids is the clock's input for a batch in ID order: the orders'
// bids, then the operator's supply.
func (e *Exchange) batchBids(batch []*Order) []*core.Bid {
	bids := make([]*core.Bid, 0, len(batch)+1)
	for _, o := range batch {
		bids = append(bids, o.Bid)
	}
	return append(bids, e.operatorSupply()...)
}

// claimBatch assembles the open batch for a binding auction and marks
// every order in it as in-auction, so it cannot be cancelled while the
// clock runs. Each stripe is claimed under its own lock and compacted in
// the same pass (terminal orders left behind by earlier settlements are
// dropped from the claim list here, so settlement itself never scans);
// the stripes' claims are then merged into global ID order, preserving
// the unsharded book's batch semantics. The batch must later be released
// — by settlement or by releaseBatch on an error path.
func (e *Exchange) claimBatch() ([]*core.Bid, []*Order, error) {
	var open []*Order
	ends := make([]int, len(e.orderShards))
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.Lock()
		kept := os.open[:0]
		for _, o := range os.open {
			if o.Status == Open {
				o.inAuction = true
				kept = append(kept, o)
				open = append(open, o)
			}
		}
		// Drop the compacted tail's pointers so settled orders are not
		// pinned by the claim list's backing array.
		for i := len(kept); i < len(os.open); i++ {
			os.open[i] = nil
		}
		os.open = kept
		os.mu.Unlock()
		ends[s] = len(open)
	}
	if len(open) == 0 {
		return nil, nil, ErrNoOpenOrders
	}
	batch := mergeByID(make([]*Order, 0, len(open)), open, ends)
	return e.batchBids(batch), batch, nil
}

// releaseBatch clears the in-auction marks after an auction that never
// reached settlement.
func (e *Exchange) releaseBatch(open []*Order) {
	for _, o := range open {
		os := e.orderShardFor(o.ID)
		os.mu.Lock()
		o.inAuction = false
		os.mu.Unlock()
	}
}

// clockConfig is the clock configuration of every auction this exchange
// runs, binding or preliminary, from the reserve prices start.
func (e *Exchange) clockConfig(start resource.Vector) core.Config {
	return core.Config{
		Start:     start,
		MaxRounds: e.cfg.MaxRounds,
	}
}

// PreliminaryPrices runs a non-binding simulation of the clock auction
// over the current open orders, as the platform does "at periodic
// intervals during the bid collection phase" (Section V.A), and returns
// the preliminary settlement prices.
//
// The converged flag reports whether the simulated clock cleared. A
// clock that hits MaxRounds still returns its final (non-clearing)
// prices alongside converged=false and ErrNoConvergence: the bid window
// is exactly where in-progress prices are useful feedback, so display
// paths should render them marked preliminary rather than fail.
func (e *Exchange) PreliminaryPrices() (prices resource.Vector, converged bool, err error) {
	bids, err := e.assemble()
	if err != nil {
		return nil, false, err
	}
	start, err := e.ReservePrices()
	if err != nil {
		return nil, false, err
	}
	a, err := core.NewAuction(e.reg, bids, e.clockConfig(start))
	if err != nil {
		return nil, false, err
	}
	res, err := a.Run()
	return res.Prices, res.Converged, err
}

// RunAuction executes one binding auction over the open orders: it runs
// the clock, settles payments into accounts and the billing ledger,
// adjusts fleet quotas, marks orders won/lost, and appends an
// AuctionRecord. The core result is returned for inspection.
//
// Auctions are serialized (one auctioneer), but the clock itself runs
// without holding any book lock: submits and reads proceed concurrently,
// and orders arriving mid-run join the next batch. Orders already in the
// settling batch are claimed for its duration and cannot be cancelled.
// Settlement walks the batch claiming each order's stripe briefly; see
// the Exchange doc comment for the (per-account atomic) consistency
// model readers observe mid-settlement.
//
// Settlement is per lane. A lane that ran out of rounds
// (core.ErrNoConvergence; its bids are core.Result.Held) stopped at
// non-clearing prices, so its orders do not settle: they stay Open for
// the next epoch, and retire Unsettled once they have been held
// maxAuctionAttempts times. Every other order settles Won or Lost at its
// own lane's clearing prices, and the appended record shows
// Converged=false when any lane was held.
func (e *Exchange) RunAuction() (*AuctionRecord, *core.Result, error) {
	e.auctionMu.Lock()
	defer e.auctionMu.Unlock()

	bids, open, err := e.claimBatch()
	if err != nil {
		return nil, nil, err
	}
	start, err := e.ReservePrices()
	if err != nil {
		e.releaseBatch(open)
		return nil, nil, err
	}
	a, err := core.NewAuction(e.reg, bids, e.clockConfig(start))
	if err != nil {
		e.releaseBatch(open)
		return nil, nil, err
	}
	res, runErr := a.Run()

	// The clock is done; only the settlement phase takes settleMu.
	e.settleMu.Lock()
	defer e.settleMu.Unlock()

	// auctionMu serializes history appends, so the next number is stable
	// across the whole settlement.
	num := e.AuctionCount() + 1
	rec := &AuctionRecord{
		Number:    num,
		Reserve:   start,
		Prices:    res.Prices,
		Rounds:    res.Rounds,
		Converged: res.Converged,
		Submitted: len(open),
	}
	// From here on, every state change flows through the event stream:
	// each decision is materialized as an Event, journaled (when a
	// journal is attached), then applied by the same applyEvent layer
	// recovery replays. The auction-cleared event is logged last, so a
	// crash mid-settlement leaves a journal prefix whose replayed book
	// simply shows a partially settled batch — per-order events are
	// self-contained — and the next process's clock reuses the auction
	// number the interrupted settlement never published.
	// Settle orders (indices in `bids` match `open` for i < len(open)).
	// Every order in the batch is still Open: the in-auction mark blocks
	// cancellation while the clock runs. Each winner's ledger pair is
	// posted atomically by the applier, so the ledger sums to zero at
	// every observable instant.
	// The events' bundle indices point into one copy a wave, not one
	// allocation a winner (and not into res, which the caller gets).
	bundles := append([]int(nil), res.ChosenBundle[:len(open)]...)
	held := res.Held // ascending, walked alongside open
	for i, o := range open {
		var ev *Event
		var outcome *atomic.Uint64 // counted once the event is journaled
		switch {
		case len(held) > 0 && held[0] == i:
			// Its lane ran out at non-clearing prices: record the attempt
			// and leave the order open — but retire it once it has been
			// held maxAuctionAttempts times, so a cycling trader pair
			// cannot livelock its lane's every future epoch.
			held = held[1:]
			if o.Attempts+1 >= maxAuctionAttempts {
				ev = &Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: num,
					Status: Unsettled, Attempts: o.Attempts + 1}
				outcome = &e.metrics.unsettled
			} else {
				ev = &Event{Kind: EvOrderAttempted, OrderID: o.ID, Auction: num,
					Attempts: o.Attempts + 1}
			}
		case res.IsWinner(i):
			bundle := bundles[i]
			ev = &Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: num, Status: Won,
				Bundle: &bundles[i], Payment: res.Payments[i]}
			rec.Settled++
			outcome = &e.metrics.won
			// γ_u is measured against the limit that governed the *winning*
			// bundle: for vector-limit bids the scalar Limit is ignored by the
			// proxy, so using it here would corrupt the Table I statistics.
			rec.Premiums = append(rec.Premiums, core.Premium(o.Bid.LimitFor(bundle), res.Payments[i]))
		default:
			ev = &Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: num, Status: Lost}
			outcome = &e.metrics.lost
		}
		if err := e.emitEvent(ev); err != nil {
			// The settled prefix open[:i] is durable and applied (so its
			// in-auction marks are already cleared), the rest of the batch
			// returns to Open, and the auction record is not written —
			// replaying the journal reproduces this exact book, the
			// crash-consistency contract reached without crashing. The
			// next clock reuses the auction number.
			e.releaseBatch(open[i:])
			return nil, nil, err
		}
		if outcome != nil {
			outcome.Add(1)
		}
		if err := e.applyEvent(ev); err != nil {
			return nil, nil, err
		}
	}
	// The operator's supply bid exists to inject capacity and anchor the
	// clock at the reserve prices; its money flow is already captured by
	// the counterparty credits the winners' settlement events post (the
	// exchange clears every trade against the operator account), so no
	// further entry is needed here.
	recEv := &Event{Kind: EvAuctionCleared, Record: rec}
	if err := e.emitEvent(recEv); err != nil {
		return nil, nil, err
	}
	if err := e.applyEvent(recEv); err != nil {
		return nil, nil, err
	}
	e.metrics.auctionRun(res)
	e.maybeSnapshotLocked(num)
	return rec, res, runErr
}

// BuyCommitments returns a snapshot of every team's running buy-side
// budget commitment — the exposure reserved for its open buy orders. The
// invariant kernel compares it against a scan of the open book: at any
// quiescent instant the two must agree exactly (the O(1) incremental
// counters are only a cache of the book's true exposure). Teams with zero
// commitment are omitted.
func (e *Exchange) BuyCommitments() map[string]float64 {
	out := make(map[string]float64)
	for s := range e.accountShards {
		as := &e.accountShards[s]
		as.mu.Lock()
		for team, a := range as.accounts {
			if a.openBuy != 0 {
				out[team] = a.openBuy
			}
		}
		as.mu.Unlock()
	}
	return out
}

// Teams lists the non-operator accounts in sorted order.
func (e *Exchange) Teams() []string {
	var out []string
	for s := range e.accountShards {
		as := &e.accountShards[s]
		as.mu.Lock()
		//marketlint:orderfree out is sorted once the shard sweep completes
		for t := range as.accounts {
			if t != OperatorAccount {
				out = append(out, t)
			}
		}
		as.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

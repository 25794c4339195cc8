package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"clustermarket/internal/fault"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/telemetry"
)

// Leg is one regional slice of a federated order: the subset of the
// acceptable clusters owned by a single region, plus the regional order
// it became once submitted there.
type Leg struct {
	Region string
	// Clusters is the intra-region XOR alternative set.
	Clusters []string
	// Est is the price-board cost estimate used to order legs at routing
	// time (cheapest region first).
	Est float64
	// Suspect marks a leg priced from a quote older than the gossip
	// staleness bound: the router still tries it, but only after every
	// fresh-quoted leg, however cheap the stale numbers claim it is.
	Suspect bool
	// OrderID is the regional order, or −1 while the leg is unsubmitted.
	OrderID int
	// Status mirrors the regional order's status once submitted.
	Status market.OrderStatus
	// Err records why a leg submission failed (budget, unknown product);
	// the router then falls through to the next-cheapest leg.
	Err string
}

// FedOrder is one order as the federation sees it. A region-local order
// carries a single leg; a cross-region XOR order ("40 cores in EU or US")
// carries one leg per region, ordered cheapest-first by the price board.
//
// Coordination invariant: at most one leg is ever open in any regional
// book — the router submits leg k+1 only after leg k has lost — so at
// most one leg can win, preserving the XOR semantics across autonomous
// regional auctions without distributed transactions.
type FedOrder struct {
	ID      int
	Team    string
	Product string
	Qty     float64
	Limit   float64
	Status  market.OrderStatus
	Legs    []*Leg
	// Active indexes the leg currently in a regional book, or −1 once the
	// order is terminal.
	Active int
	// Region and Payment describe the winning leg. The allocation is not
	// copied here: it is the winning leg's regional order's (WonLeg, then
	// that region's Exchange.Order and market.Order.Grant).
	Region  string
	Payment float64
}

// WonLeg returns the leg that won the order, nil unless the order is Won.
func (o *FedOrder) WonLeg() *Leg {
	if o.Status != market.Won {
		return nil
	}
	for _, l := range o.Legs {
		if l.Status == market.Won {
			return l
		}
	}
	return nil
}

// snapshot deep-copies the routing state.
func (o *FedOrder) snapshot() *FedOrder {
	c := *o
	c.Legs = make([]*Leg, len(o.Legs))
	for i, l := range o.Legs {
		lc := *l
		lc.Clusters = append([]string(nil), l.Clusters...)
		c.Legs[i] = &lc
	}
	return &c
}

// Stats counts what the federation's router has done.
type Stats struct {
	// Submitted counts accepted federated orders.
	Submitted int
	// CrossRegion counts orders whose clusters spanned multiple regions.
	CrossRegion int
	// Failovers counts legs submitted after an earlier leg lost.
	Failovers int
	// Won, Lost, and Unsettled count terminal order outcomes.
	Won, Lost, Unsettled int
}

// RegionTick is one region's outcome from a federation-wide Tick.
type RegionTick struct {
	Region string
	Record *market.AuctionRecord
	Err    error
}

// Federation fronts N autonomous regional markets behind one API. Orders
// naming clusters from a single region route straight to that region's
// exchange; orders spanning regions are split into per-region legs tried
// cheapest-first (per the gossip-refreshed price board), which steers
// substitutable demand toward cold regions exactly as the paper's
// substitution bundles intend.
//
// All methods are safe for concurrent use. The federation lock (mu)
// guards only routing state — the order table and price board — and is
// never held across a regional clock auction, so regions settle fully in
// parallel.
type Federation struct {
	regions []*Region
	byName  map[string]*Region
	owner   map[string]string // cluster → region name
	catalog *market.Catalog

	mu     sync.Mutex
	orders []*FedOrder
	// byID indexes every order for O(1) lookup. Order and Cancel are on
	// the router's polling path (every leg advance re-reads order state),
	// so a linear scan of every order ever submitted would make routing
	// quadratic in book age, exactly as Exchange.Order was before its
	// indexed lookup.
	byID       map[int]*FedOrder
	nextID     int
	board      map[string]Quote
	gossipTick int
	stats      Stats
	// open indexes the non-terminal orders by the region holding their
	// active leg, so advancing a region after its settlement touches only
	// the orders actually waiting on it rather than every order ever
	// routed.
	open map[string]map[int]*FedOrder

	// journal, when attached, receives every routing state change as an
	// event (see event.go); the regions journal their own books
	// separately. fire (possibly nil) receives the same events for live
	// subscribers. All guarded by mu.
	journal       *journal.Journal
	journalErr    error
	fire          *telemetry.Firehose
	snapshotEvery int
	settleCount   int

	// inj (possibly nil — a nil injector never fires) is the fault seam
	// on region calls and gossip; breakers tracks per-region health.
	// Both are attached before traffic and internally synchronized.
	inj      *fault.Injector
	breakers *breakerSet
}

// NewFederation assembles regions into one federated market. Region
// names and cluster names must be globally unique (pools are namespaced
// per region; an ambiguous cluster could not be routed).
func NewFederation(regions ...*Region) (*Federation, error) {
	if len(regions) == 0 {
		return nil, errors.New("federation: no regions")
	}
	f := &Federation{
		regions: regions,
		byName:  make(map[string]*Region, len(regions)),
		owner:   make(map[string]string),
		catalog: market.StandardCatalog(),
		board:   make(map[string]Quote),
		byID:    make(map[int]*FedOrder),
		open:    make(map[string]map[int]*FedOrder, len(regions)),
	}
	for _, r := range regions {
		if _, ok := f.byName[r.name]; ok {
			return nil, fmt.Errorf("federation: duplicate region %q", r.name)
		}
		f.byName[r.name] = r
		for _, cl := range r.Clusters() {
			if prev, ok := f.owner[cl]; ok {
				return nil, fmt.Errorf("federation: cluster %q in both %q and %q", cl, prev, r.name)
			}
			f.owner[cl] = r.name
		}
	}
	f.breakers = newBreakerSet(regions)
	return f, nil
}

// AttachFaults attaches a fault injector to the federation's region-call
// boundaries: order routing, settlement entry, and gossip. Attach before
// serving traffic; a nil injector (or none) means no faults.
func (f *Federation) AttachFaults(inj *fault.Injector) {
	f.mu.Lock()
	f.inj = inj
	f.mu.Unlock()
}

// Regions returns the member regions in registration order.
func (f *Federation) Regions() []*Region {
	return append([]*Region(nil), f.regions...)
}

// Region returns the named region, or nil.
func (f *Federation) Region(name string) *Region { return f.byName[name] }

// RegionOf returns the region owning the cluster, or "".
func (f *Federation) RegionOf(cluster string) string { return f.owner[cluster] }

// Catalog returns the federation-wide product catalog.
func (f *Federation) Catalog() *market.Catalog { return f.catalog }

// OpenAccount opens the team's account in every region: budgets are
// per-region, as in a brokered federation of autonomous markets where
// each market carries its own billing relationship.
func (f *Federation) OpenAccount(team string) error {
	for _, r := range f.regions {
		if err := r.ex.OpenAccount(team); err != nil {
			return err
		}
	}
	return nil
}

// Balance sums the team's balances across regions.
func (f *Federation) Balance(team string) (float64, error) {
	var total float64
	for _, r := range f.regions {
		b, err := r.ex.Balance(team)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// Teams lists the non-operator accounts (identical in every region).
func (f *Federation) Teams() []string { return f.regions[0].ex.Teams() }

// SubmitProduct routes one product order. Clusters from a single region
// go straight to that region's book; clusters spanning regions are split
// into per-region legs, ordered cheapest-first by the price board, and
// only the first leg is submitted — later legs enter a book only after
// the earlier ones lose, so at most one leg ever wins.
//
// Routing runs outside the federation lock: the regional submit is the
// expensive step, and holding f.mu across it would serialize order entry
// federation-wide. The lock is taken only to read the board and to
// register the order; a settlement racing the registration is
// reconciled immediately afterwards (see the auction-count check).
func (f *Federation) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (*FedOrder, error) {
	p, err := f.catalog.Lookup(product)
	if err != nil {
		return nil, err
	}
	// qty <= 0 alone would wave NaN through (every comparison with NaN
	// is false) into the per-region leg routing; reject non-finite and
	// non-positive values before any leg is attempted.
	if math.IsNaN(qty) || math.IsInf(qty, 0) || qty <= 0 {
		return nil, fmt.Errorf("federation: quantity must be positive, got %g", qty)
	}
	if math.IsNaN(limit) || math.IsInf(limit, 0) || limit <= 0 {
		return nil, fmt.Errorf("federation: limit must be a positive, finite number, got %g", limit)
	}
	if len(clusters) == 0 {
		return nil, errors.New("federation: no clusters named")
	}
	// Group the acceptable clusters by owning region, preserving order
	// (f.owner is immutable after NewFederation).
	groups := make(map[string][]string)
	var regionOrder []string
	for _, cl := range clusters {
		rn, ok := f.owner[cl]
		if !ok {
			return nil, fmt.Errorf("federation: unknown cluster %q", cl)
		}
		if _, seen := groups[rn]; !seen {
			regionOrder = append(regionOrder, rn)
		}
		groups[rn] = append(groups[rn], cl)
	}
	cover := p.Cover(qty)

	legs := make([]*Leg, 0, len(regionOrder))
	f.mu.Lock()
	inj := f.inj
	for _, rn := range regionOrder {
		leg := &Leg{Region: rn, Clusters: groups[rn], Est: inf, OrderID: -1}
		if q, ok := f.quoteLocked(f.byName[rn]); ok {
			leg.Est = f.byName[rn].legCost(q, cover, leg.Clusters)
			// A quote past the staleness bound may be pricing a partition
			// survivor's last gossip from before the cut: the leg is still
			// routable, but only after every fresh-quoted leg.
			leg.Suspect = f.gossipTick-q.Tick > staleQuoteBound
		}
		legs = append(legs, leg)
	}
	f.mu.Unlock()
	// Cheapest region first, with suspect (stale-quoted) legs deprioritized
	// behind every fresh-quoted one: the price board steers substitutable
	// demand toward cold regions, but not on numbers a partition may have
	// frozen. Ties keep the caller's cluster order.
	sort.SliceStable(legs, func(i, j int) bool {
		if legs[i].Suspect != legs[j].Suspect {
			return !legs[i].Suspect
		}
		return legs[i].Est < legs[j].Est
	})

	// Fault seam: a partitioned target region fails the routing call here,
	// before any state has moved, so a caller retry after the partition
	// heals replays the identical operation. Injected failures feed the
	// region's breaker; organic rejections below (budget, product) do not.
	if err := inj.Region(fault.OpRegionOrder, legs[0].Region); err != nil {
		f.breakers.failure(legs[0].Region)
		return nil, err
	}

	// Book the first acceptable leg, lock-free. Regions whose breaker is
	// open are skipped — the same at-most-one-leg failover that handles a
	// lost leg handles a partitioned region. auctionsBefore snapshots
	// the target region's settlement count so a clock completing between
	// this submit and the registration below cannot strand the order.
	active := -1
	auctionsBefore := 0
	var lastErr error
	for i, leg := range legs {
		if !f.breakers.allow(leg.Region) {
			leg.Err = "federation: region breaker open"
			if lastErr == nil {
				lastErr = fmt.Errorf("federation: region %q breaker open", leg.Region)
			}
			continue
		}
		r := f.byName[leg.Region]
		auctionsBefore = r.ex.AuctionCount()
		o, err := r.ex.SubmitProduct(team, product, qty, leg.Clusters, limit)
		if err != nil {
			leg.Err = err.Error()
			lastErr = err
			continue
		}
		leg.OrderID = o.ID
		leg.Status = market.Open
		active = i
		break
	}
	if active < 0 {
		return nil, lastErr
	}
	f.breakers.success(legs[active].Region)

	f.mu.Lock()
	fo := &FedOrder{
		ID: f.nextID, Team: team, Product: product, Qty: qty, Limit: limit,
		Status: market.Open, Legs: legs, Active: active,
	}
	f.nextID++
	f.orders = append(f.orders, fo)
	f.byID[fo.ID] = fo
	f.trackLocked(fo)
	f.stats.Submitted++
	if len(legs) > 1 {
		f.stats.CrossRegion++
	}
	snap := fo.snapshot()
	if f.materializingLocked() {
		stats := f.stats
		f.emitLocked(&FedEvent{Kind: EvFedOrderSubmitted, Order: snap, Stats: &stats})
	}
	logErr := f.journalErr
	f.mu.Unlock()
	if logErr != nil {
		return nil, logErr
	}

	// Reconcile the submit/settle race: if the region settled while the
	// order was being registered, the normal OnTick advance ran too early
	// to see it — run it again now that the order is visible.
	if f.byName[legs[active].Region].ex.AuctionCount() != auctionsBefore {
		f.advanceRegion(legs[active].Region)
		f.mu.Lock()
		snap = fo.snapshot()
		f.mu.Unlock()
	}
	return snap, nil
}

// trackLocked indexes an order under the region of its active leg.
// Callers must hold f.mu.
func (f *Federation) trackLocked(fo *FedOrder) {
	rn := fo.Legs[fo.Active].Region
	byID, ok := f.open[rn]
	if !ok {
		byID = make(map[int]*FedOrder)
		f.open[rn] = byID
	}
	byID[fo.ID] = fo
}

// submitNextLegLocked books the next unsubmitted leg after fo.Active,
// skipping legs whose regional submission is rejected, and re-indexes
// the order under the new leg's region. It returns an error only when no
// leg could be booked. Callers must hold f.mu and must have removed the
// order from its previous region's index.
func (f *Federation) submitNextLegLocked(fo *FedOrder) error {
	var lastErr error
	for next := fo.Active + 1; next < len(fo.Legs); next++ {
		leg := fo.Legs[next]
		if !f.breakers.allow(leg.Region) {
			leg.Err = "federation: region breaker open"
			if lastErr == nil {
				lastErr = fmt.Errorf("federation: region %q breaker open", leg.Region)
			}
			continue
		}
		o, err := f.byName[leg.Region].ex.SubmitProduct(fo.Team, fo.Product, fo.Qty, leg.Clusters, fo.Limit)
		if err != nil {
			leg.Err = err.Error()
			lastErr = err
			continue
		}
		leg.OrderID = o.ID
		leg.Status = market.Open
		fo.Active = next
		f.trackLocked(fo)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("federation: no leg to submit")
	}
	return lastErr
}

// advanceRegion reconciles routing state after the named region settled
// an auction: winning legs conclude their orders, losing legs fail over
// to the next-cheapest region. Only orders whose active leg is in the
// region are visited, via the open-order index — in ascending order ID,
// not map order: failover submissions book orders into the next region's
// book, so the visit order decides both the IDs those legs get and which
// legs a near-exhausted budget can still cover. Sorting makes a
// settlement wave a deterministic function of the routing state, which
// the scenario engine's seed-reproducibility contract depends on.
func (f *Federation) advanceRegion(name string) {
	r, ok := f.byName[name]
	if !ok {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]int, 0, len(f.open[name]))
	for id := range f.open[name] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fo := f.open[name][id]
		if fo.Status != market.Open || fo.Active < 0 {
			delete(f.open[name], id)
			continue
		}
		leg := fo.Legs[fo.Active]
		o, err := r.ex.Order(leg.OrderID)
		if err != nil {
			continue
		}
		leg.Status = o.Status
		changed := true
		switch o.Status {
		case market.Open:
			// The region's clock did not converge; the leg stays booked
			// for the region's next epoch. Nothing moved, so nothing is
			// journaled.
			changed = false
		case market.Won:
			fo.Status = market.Won
			fo.Active = -1
			fo.Region = leg.Region
			fo.Payment = o.Payment
			f.stats.Won++
			delete(f.open[name], id)
		case market.Lost, market.Unsettled:
			delete(f.open[name], id)
			if err := f.submitNextLegLocked(fo); err != nil {
				fo.Status = o.Status
				fo.Active = -1
				if o.Status == market.Lost {
					f.stats.Lost++
				} else {
					f.stats.Unsettled++
				}
			} else {
				f.stats.Failovers++
			}
		case market.Cancelled:
			fo.Status = market.Cancelled
			fo.Active = -1
			delete(f.open[name], id)
		}
		if changed && f.materializingLocked() {
			// The event carries the wholesale post-advance order state (a
			// failover's new leg booking included) plus the absolute router
			// counters, so replay reproduces this advance without touching
			// the region.
			stats := f.stats
			f.emitLocked(&FedEvent{Kind: EvFedOrderUpdated, Order: fo.snapshot(), Stats: &stats})
		}
	}
}

// Cancel withdraws a federated order by cancelling its active leg. Like
// Exchange.Cancel, an order whose leg is in a settling auction cannot be
// withdrawn.
func (f *Federation) Cancel(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	fo, ok := f.byID[id]
	if !ok {
		return fmt.Errorf("federation: no order %d", id)
	}
	if fo.Status != market.Open {
		return fmt.Errorf("federation: order %d is %s", id, fo.Status)
	}
	leg := fo.Legs[fo.Active]
	if err := f.byName[leg.Region].ex.Cancel(leg.OrderID); err != nil {
		return err
	}
	leg.Status = market.Cancelled
	fo.Status = market.Cancelled
	fo.Active = -1
	delete(f.open[leg.Region], fo.ID)
	if f.materializingLocked() {
		stats := f.stats
		f.emitLocked(&FedEvent{Kind: EvFedOrderUpdated, Order: fo.snapshot(), Stats: &stats})
	}
	return f.journalErr
}

// Order returns a snapshot of one federated order.
func (f *Federation) Order(id int) (*FedOrder, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fo, ok := f.byID[id]; ok {
		return fo.snapshot(), nil
	}
	return nil, fmt.Errorf("federation: no order %d", id)
}

// Orders returns snapshots of every federated order.
func (f *Federation) Orders() []*FedOrder {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*FedOrder, len(f.orders))
	for i, fo := range f.orders {
		out[i] = fo.snapshot()
	}
	return out
}

// OrdersTail returns snapshots of the limit most recently routed orders
// in routing order — the bounded read path for display pollers, which
// copies O(limit) instead of every order ever routed. A non-positive
// limit returns nil.
func (f *Federation) OrdersTail(limit int) []*FedOrder {
	if limit <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	start := len(f.orders) - limit
	if start < 0 {
		start = 0
	}
	out := make([]*FedOrder, 0, len(f.orders)-start)
	for _, fo := range f.orders[start:] {
		out = append(out, fo.snapshot())
	}
	return out
}

// Stats returns a snapshot of the router counters.
func (f *Federation) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// SettleRegion runs one binding auction in the named region, then
// gossips its prices and advances any cross-region orders waiting on it
// — the manual-settlement counterpart of one Serve tick. Settling a
// region through its Exchange directly would bypass the router, so
// federated front ends must settle through this method (or Tick/Serve).
func (f *Federation) SettleRegion(name string) (*market.AuctionRecord, error) {
	r, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("federation: no region %q", name)
	}
	f.mu.Lock()
	inj := f.inj
	f.mu.Unlock()
	// Fault seam, before any state moves: a partitioned region fails its
	// settlement round cleanly (feeding the breaker), so a retry after the
	// partition heals replays the identical round. The gossip window is
	// consumed here too — an Unreachable gossip fault loses this round's
	// quote (the board goes stale) without failing the settlement, and
	// deliberately does not feed the breaker: stale prices degrade routing
	// quality, not region health.
	if err := inj.Region(fault.OpRegionSettle, name); err != nil {
		f.breakers.failure(name)
		return nil, err
	}
	f.breakers.success(name)
	gossipLost := inj.Region(fault.OpRegionGossip, name) != nil

	rec, _, err := r.ex.RunAuction()
	f.mu.Lock()
	f.gossipTick++
	// The bare tick event keeps the recovered gossip clock in step even
	// when the quote itself cannot be refreshed.
	if f.materializingLocked() {
		f.emitLocked(&FedEvent{Kind: EvFedGossip, Tick: f.gossipTick})
	}
	if !gossipLost {
		f.gossipRegionLocked(r)
	}
	f.mu.Unlock()
	f.advanceRegion(name)

	f.mu.Lock()
	f.settleCount++
	snapshotDue := f.journal != nil && f.snapshotEvery > 0 && f.settleCount%f.snapshotEvery == 0
	logErr := f.journalErr
	f.mu.Unlock()
	if logErr != nil {
		return rec, logErr
	}
	if snapshotDue {
		if serr := f.Snapshot(); serr != nil {
			return rec, serr
		}
	}
	return rec, err
}

// Tick settles every region's accumulated batch concurrently — one clock
// auction per region, run in parallel — then gossips prices and advances
// cross-region routing. Idle regions (empty books) report a nil record
// and nil error.
func (f *Federation) Tick() []RegionTick {
	out := make([]RegionTick, len(f.regions))
	var wg sync.WaitGroup
	for i, r := range f.regions {
		wg.Add(1)
		go func(i int, r *Region) {
			defer wg.Done()
			rec, _, err := r.ex.RunAuction()
			if errors.Is(err, market.ErrNoOpenOrders) {
				rec, err = nil, nil
			}
			out[i] = RegionTick{Region: r.name, Record: rec, Err: err}
		}(i, r)
	}
	wg.Wait()
	f.Gossip()
	for _, r := range f.regions {
		f.advanceRegion(r.name)
	}
	return out
}

// Serve runs one epoch loop per region until ctx is cancelled. The loops
// are independent goroutines, so regional auctions settle concurrently;
// after each regional settlement the federation gossips that region's
// prices and advances any cross-region orders waiting on it. It returns
// ctx.Err().
func (f *Federation) Serve(ctx context.Context, epoch time.Duration) error {
	if epoch <= 0 {
		return errors.New("federation: epoch must be positive")
	}
	var wg sync.WaitGroup
	for _, r := range f.regions {
		loop, err := market.NewLoop(r.ex, epoch)
		if err != nil {
			return err
		}
		region := r
		loop.OnTick = func(rec *market.AuctionRecord, err error) {
			f.mu.Lock()
			f.gossipTick++
			if f.materializingLocked() {
				f.emitLocked(&FedEvent{Kind: EvFedGossip, Tick: f.gossipTick})
			}
			f.gossipRegionLocked(region)
			f.mu.Unlock()
			f.advanceRegion(region.name)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop.Run(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// RegionSummary aggregates one region for the global market view.
type RegionSummary struct {
	Region     string
	Clusters   []market.ClusterSummary
	Auctions   int
	OpenOrders int
	// Settled sums orders settled as Won across the region's auctions.
	Settled int
	// MeanCPUPrice averages the summary CPU price across the region's
	// clusters — the single number the global view ranks regions by.
	MeanCPUPrice float64
}

// Summary builds the global market summary: one aggregate per region,
// with the per-cluster rows for drill-down.
func (f *Federation) Summary() ([]RegionSummary, error) {
	out := make([]RegionSummary, 0, len(f.regions))
	for _, r := range f.regions {
		rows, err := r.ex.Summary()
		if err != nil {
			return nil, err
		}
		rs := RegionSummary{
			Region:     r.name,
			Clusters:   rows,
			OpenOrders: r.ex.OpenOrderCount(),
		}
		for _, rec := range r.ex.History() {
			rs.Auctions++
			rs.Settled += rec.Settled
		}
		var cpu float64
		for _, row := range rows {
			cpu += row.Price.CPU
		}
		if len(rows) > 0 {
			rs.MeanCPUPrice = cpu / float64(len(rows))
		}
		out = append(out, rs)
	}
	return out, nil
}

// History returns every region's auction records, keyed by region name.
func (f *Federation) History() map[string][]*market.AuctionRecord {
	out := make(map[string][]*market.AuctionRecord, len(f.regions))
	for _, r := range f.regions {
		out[r.name] = r.ex.History()
	}
	return out
}

// RegionLedgerEntry tags a billing record with its region.
type RegionLedgerEntry struct {
	Region string
	market.LedgerEntry
}

// Ledger concatenates every region's billing ledger in region order.
func (f *Federation) Ledger() []RegionLedgerEntry {
	var out []RegionLedgerEntry
	for _, r := range f.regions {
		for _, le := range r.ex.Ledger() {
			out = append(out, RegionLedgerEntry{Region: r.name, LedgerEntry: le})
		}
	}
	return out
}

// LedgerBalanced reports whether every region's ledger sums to zero —
// money is conserved within each region, so it is conserved globally.
func (f *Federation) LedgerBalanced(eps float64) bool {
	for _, r := range f.regions {
		if !r.ex.LedgerBalanced(eps) {
			return false
		}
	}
	return true
}

// PriceHistory returns one pool's settlement prices in its owning
// region, oldest first.
func (f *Federation) PriceHistory(pool resource.Pool) []float64 {
	rn, ok := f.owner[pool.Cluster]
	if !ok {
		return nil
	}
	return f.byName[rn].ex.PriceHistory(pool)
}

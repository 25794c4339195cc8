package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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
	// Err records why a leg submission failed (budget, a failed journal
	// write by event kind); the router then falls through to the next leg.
	Err string
}

// FedOrder is one order as the federation shows it: the view of a routing
// record (see table.go), built afresh for every caller, event and
// snapshot. A region-local order
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

// RouterStats are gauges of the router's table and of each region's last
// settlement wave (wave.go). They describe this process, not the market:
// they are not journaled and start from what recovery rebuilt.
type RouterStats struct {
	// Routes and Legs are the table's record counts; Bytes is what its
	// slabs hold, the empty tails of their last chunks included.
	Routes, Legs, Bytes int
	// Regions holds one row a region, in registration order.
	Regions []RouterRegion
}

// RouterRegion is one region's row of RouterStats.
type RouterRegion struct {
	Region string
	// OpenIDs is the length of the region's open-order list, stale ids
	// included until its next wave drops them.
	OpenIDs int
	// Visited counts the legs the region's last wave as a source read an
	// outcome for: those waiting on it when the wave began. A leg the same
	// wave booked into it waits for its next. Failovers counts the legs
	// that wave booked elsewhere for orders that lost here.
	Visited, Failovers int
	// Refused counts the failover legs the region refused (budget, a
	// failed journal write) in the last wave it took part in, as source or
	// target.
	Refused int
}

// RegionTick is one region's outcome from a federation-wide Tick; Err is its own.
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
// guards only routing state — the order table, and the writers of the
// price board — and is never held across a regional clock auction, so
// regions settle fully in parallel.
type Federation struct {
	regions []*Region
	catalog *market.Catalog

	mu sync.Mutex
	// table holds every order ever routed and, per region, the ids of the
	// open ones waiting on it, so advancing a region after its settlement
	// touches only those.
	table table
	// board is the price board and gossip clock as published (board.go):
	// written under mu, read from one atomic load.
	board atomic.Pointer[boardView]
	stats Stats
	// advanced keeps each region's last wave for RouterStats; spare is the
	// wave whose buffers the next one reuses (nil while a wave runs).
	advanced []RouterRegion
	spare    *wave

	// journal, when attached, receives every routing state change as an
	// event (see event.go); the regions journal their own books
	// separately. fire (possibly nil) receives the same events for live
	// subscribers. All guarded by mu.
	journal       *journal.Journal
	fire          *telemetry.Firehose
	snapshotEvery int
	settleCount   int

	// inj (nil — a nil injector never fires — until AttachFaults) is the
	// fault seam on region calls and gossip.
	inj atomic.Pointer[fault.Injector]
}

// NewFederation assembles regions into one federated market. Region
// names and cluster names must be globally unique (pools are namespaced
// per region; an ambiguous cluster could not be routed).
func NewFederation(regions ...*Region) (*Federation, error) {
	if len(regions) == 0 {
		return nil, errors.New("federation: no regions")
	}
	if len(regions) > maxRegions {
		return nil, fmt.Errorf("federation: %d regions, the router indexes at most %d", len(regions), maxRegions)
	}
	f := &Federation{
		regions:  regions,
		catalog:  market.StandardCatalog(),
		advanced: make([]RouterRegion, len(regions)),
		table: table{
			regions:   regions,
			regionIdx: make(map[string]int, len(regions)),
			cluster:   make(map[string]clusterRef),
			nameIdx:   make(map[string]uint32),
			open:      make([][]uint32, len(regions)),
			maxIndex:  math.MaxUint32,
		},
	}
	t := &f.table
	for i, r := range regions {
		if _, ok := t.regionIdx[r.name]; ok {
			return nil, fmt.Errorf("federation: duplicate region %q", r.name)
		}
		t.regionIdx[r.name], f.advanced[i].Region = i, r.name
		reg := r.ex.Registry()
		for _, cl := range r.Clusters() {
			if prev, ok := t.cluster[cl]; ok {
				return nil, fmt.Errorf("federation: cluster %q in both %q and %q", cl, regions[prev.region].name, r.name)
			}
			if !t.fits(len(t.clusterNames), 1) {
				return nil, ErrTableFull
			}
			t.cluster[cl] = clusterRef{id: uint32(len(t.clusterNames)), region: uint8(i)}
			row, _ := reg.Row(cl)
			t.clusterNames, t.clusterRows = append(t.clusterNames, cl), append(t.clusterRows, row)
		}
	}
	f.board.Store(&boardView{quotes: make([]Quote, len(regions))})
	return f, nil
}

// AttachFaults attaches a fault injector to the federation's region-call
// boundaries: order routing, settlement entry, and gossip. Attach before
// serving traffic; a nil injector (or none) means no faults.
func (f *Federation) AttachFaults(inj *fault.Injector) {
	f.inj.Store(inj)
}

// Regions returns the member regions in registration order.
func (f *Federation) Regions() []*Region {
	return append([]*Region(nil), f.regions...)
}

// Region returns the named region, or nil.
func (f *Federation) Region(name string) *Region {
	if i, ok := f.table.regionIdx[name]; ok {
		return f.regions[i]
	}
	return nil
}

// RegionOf returns the region owning the cluster, or "".
func (f *Federation) RegionOf(cluster string) string {
	if ref, ok := f.table.cluster[cluster]; ok {
		return f.regions[ref.region].name
	}
	return ""
}

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

// SubmitProduct routes one product order and returns its id. Clusters
// from a single region go straight to that region's book; clusters
// spanning regions are split into per-region legs, ordered cheapest-first
// by the price board, and only the first leg is submitted — later legs
// enter a book only after the earlier ones lose, so at most one leg ever
// wins. It builds no view of the order: Order(id) does.
//
// Routing runs outside the federation lock: the regional submit is the
// expensive step, and holding f.mu across it would serialize order entry
// federation-wide. The legs are priced from the published board, and the
// lock is taken once, to register the order; a settlement racing the
// registration is reconciled immediately afterwards (see the
// auction-count check).
func (f *Federation) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (int, error) {
	p, err := f.catalog.Lookup(product)
	if err != nil {
		return -1, err
	}
	// qty <= 0 alone would wave NaN through (every comparison with NaN
	// is false) into the per-region leg routing; reject non-finite and
	// non-positive values before any leg is attempted.
	if math.IsNaN(qty) || math.IsInf(qty, 0) || qty <= 0 {
		return -1, fmt.Errorf("federation: quantity must be positive, got %g", qty)
	}
	if math.IsNaN(limit) || math.IsInf(limit, 0) || limit <= 0 {
		return -1, fmt.Errorf("federation: limit must be a positive, finite number, got %g", limit)
	}
	if len(clusters) == 0 {
		return -1, errors.New("federation: no clusters named")
	}
	// Group the acceptable clusters by owning region, preserving order (the
	// topology is immutable after NewFederation): one leg per region in
	// order of first mention, its clusters in the caller's order. The
	// buffers cover a four-region XOR of sixteen clusters on the stack.
	t := &f.table
	var refBuf [16]clusterRef
	var clBuf [16]uint32
	var legBuf [4]legDraft
	refs, cls, legs := refBuf[:0], clBuf[:0], legBuf[:0]
	for _, cl := range clusters {
		ref, ok := t.cluster[cl]
		if !ok {
			return -1, fmt.Errorf("federation: unknown cluster %q", cl)
		}
		refs = append(refs, ref)
	}
grouping:
	for i, first := range refs {
		for k := range legs {
			if legs[k].region == first.region {
				continue grouping
			}
		}
		leg := legDraft{routeLeg{region: first.region, est: inf, order: -1}, uint32(len(cls))}
		for _, ref := range refs[i:] {
			if ref.region == first.region {
				cls = append(cls, ref.id)
			}
		}
		n := len(cls) - int(leg.clOff)
		if n > maxLegClusters {
			return -1, fmt.Errorf("federation: %d clusters named in region %q, at most %d", n, f.regions[leg.region].name, maxLegClusters)
		}
		leg.clN = uint16(n)
		legs = append(legs, leg)
	}
	cover := p.Cover(qty)

	b := f.board.Load()
	for i := range legs {
		if b.quotes[legs[i].region].Region == "" {
			b = f.quoteLegs(legs)
			break
		}
	}
	for i := range legs {
		leg := &legs[i]
		if q := b.quotes[leg.region]; q.Region != "" {
			leg.est = legCost(q, cover, leg.of(cls), t.clusterRows)
			// A quote past the staleness bound may be pricing a partition
			// survivor's last gossip from before the cut: the leg is still
			// routable, but only after every fresh-quoted leg.
			if b.tick-q.Tick > staleQuoteBound {
				leg.status |= suspectBit
			}
		}
	}
	// Cheapest region first, with suspect (stale-quoted) legs deprioritized
	// behind every fresh-quoted one: the price board steers substitutable
	// demand toward cold regions, but not on numbers a partition may have
	// frozen. Ties keep the caller's cluster order.
	slices.SortStableFunc(legs, func(a, b legDraft) int {
		switch {
		case a.suspect() != b.suspect() && b.suspect():
			return -1
		case a.suspect() != b.suspect():
			return 1
		case a.est < b.est:
			return -1
		case b.est < a.est:
			return 1
		}
		return 0
	})

	// Fault seam: a partitioned target region fails the routing call here,
	// before any state has moved, so a caller retry after the partition
	// heals replays the identical operation.
	if err := f.inj.Load().Region(fault.OpRegionOrder, f.regions[legs[0].region].name); err != nil {
		return -1, err
	}

	// Book the first acceptable leg, lock-free: a refused leg (budget, a
	// failed journal write) falls through to the next, the same at-most-one-leg
	// failover that handles a lost leg. auctionsBefore snapshots
	// the target region's settlement count so a clock completing between
	// this submit and the registration below cannot strand the order.
	active := -1
	auctionsBefore := 0
	var errs []string // Leg.Err by leg, nil until a leg is refused
	var lastErr error
	var rowBuf [8]resource.PoolRow
	for i := range legs {
		auctionsBefore = f.regions[legs[i].region].ex.AuctionCount()
		rows := rowBuf[:0]
		for _, c := range legs[i].of(cls) {
			rows = append(rows, t.clusterRows[c])
		}
		if err := f.bookLeg(&legs[i].routeLeg, rows, team, product, qty, limit); err != nil {
			if errs == nil {
				errs = make([]string, len(legs))
			}
			errs[i] = legErr(err)
			lastErr = err
			continue
		}
		active = i
		break
	}
	if active < 0 {
		return -1, lastErr
	}
	target := f.regions[legs[active].region]

	f.mu.Lock()
	id, err := t.add(route{qty: qty, limit: limit, active: int16(active), status: uint8(market.Open), won: noRegion},
		team, product, legs, cls)
	if err != nil {
		f.mu.Unlock()
		// The leg is booked but cannot be routed: withdraw it. (A clock that
		// already holds it refuses, and settles it as any regional order.)
		_ = target.ex.Cancel(int(legs[active].order))
		return -1, err
	}
	for i, text := range errs {
		t.setErr(t.routeAt(id).legOff+uint32(i), text)
	}
	f.stats.Submitted++
	if len(legs) > 1 {
		f.stats.CrossRegion++
	}
	if f.materializingLocked() {
		stats := f.stats
		if err = f.emitLocked(&FedEvent{Kind: EvFedOrderSubmitted, Order: t.view(id), Stats: &stats}); err == nil {
			err = f.catchUpLocked()
		}
		if err != nil {
			// Withdraw the unjournaled order, so a retry cannot duplicate
			// it; a leg a clock already holds is left to settle, as above.
			_ = f.withdrawLocked(id)
		}
	}
	f.mu.Unlock()

	// Reconcile the submit/settle race: if the region settled while the
	// order was being registered, that settlement's wave ran too early to
	// see it — run one again now that the order is visible.
	if target.ex.AuctionCount() != auctionsBefore {
		f.advance(int(legs[active].region))
	}
	if err != nil {
		return -1, err
	}
	return id, nil
}

// legErr is Leg.Err's text for err; a journal failure's omits the WAL.
func legErr(err error) string {
	var je *market.JournalError
	if errors.As(err, &je) {
		return "market: journal " + je.Kind + " event failed"
	}
	return err.Error()
}

// bookLeg submits one leg, over the clusters whose pool rows it is given,
// to its region and records the regional order in it. It reads no routing
// state, so the first leg is booked without f.mu.
func (f *Federation) bookLeg(leg *routeLeg, rows []resource.PoolRow, team, product string, qty, limit float64) error {
	r := f.regions[leg.region]
	id, err := r.ex.SubmitProductRows(team, product, qty, rows, limit)
	if err == nil && id > math.MaxInt32 {
		// The record cannot hold the id; withdraw the order rather than wrap.
		_ = r.ex.Cancel(id)
		err = ErrTableFull
	}
	if err != nil {
		return err
	}
	leg.order = int32(id)
	leg.setState(market.Open)
	return nil
}

// withdrawLocked cancels order id's active leg, under f.mu: a submit
// whose record failed withdraws itself.
func (f *Federation) withdrawLocked(id int) error {
	t := &f.table
	if id < 0 || id >= t.routed() {
		return fmt.Errorf("federation: no order %d", id)
	}
	rt := t.routeAt(id)
	if status := market.OrderStatus(rt.status); status != market.Open {
		return fmt.Errorf("federation: order %d is %s", id, status)
	}
	leg := t.legAt(rt.legOff + uint32(rt.active))
	if err := f.regions[leg.region].ex.Cancel(int(leg.order)); err != nil {
		return err
	}
	// The id stays on the region's open list until its next wave.
	leg.setState(market.Cancelled)
	rt.status, rt.active = uint8(market.Cancelled), -1
	if !f.materializingLocked() {
		return nil
	}
	stats := f.stats
	if err := f.emitLocked(&FedEvent{Kind: EvFedOrderUpdated, Order: t.view(id), Stats: &stats}); err != nil {
		return err
	}
	return f.catchUpLocked()
}

// Order returns a view of one federated order.
func (f *Federation) Order(id int) (*FedOrder, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id < 0 || id >= f.table.routed() {
		return nil, fmt.Errorf("federation: no order %d", id)
	}
	return f.table.view(id), nil
}

// Orders returns views of every federated order.
func (f *Federation) Orders() []*FedOrder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.table.views(0)
}

// OrdersTail returns views of the limit most recently routed orders
// in routing order — the bounded read path for display pollers, which
// copies O(limit) instead of every order ever routed. A non-positive
// limit returns nil.
func (f *Federation) OrdersTail(limit int) []*FedOrder {
	if limit <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.table.views(max(0, f.table.routed()-limit))
}

// Stats returns a snapshot of the router counters.
func (f *Federation) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// RouterStats returns the router's table and advance gauges.
func (f *Federation) RouterStats() RouterStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &f.table
	rs := RouterStats{Routes: t.routed(), Legs: t.legs.Len(legChunk), Bytes: t.bytes(), Regions: slices.Clone(f.advanced)}
	for i, ids := range t.open {
		rs.Regions[i].OpenIDs = len(ids)
	}
	return rs
}

// SettleRegion runs one binding auction in the named region, then gossips
// its prices and runs the settlement wave over it: it is Tick over one
// region. Settling a region through its Exchange directly would bypass
// the router, so federated front ends must settle through this method (or
// Tick/Serve). The error is the region's own: an injected settlement
// fault, returned before any state moves, else the clock's.
func (f *Federation) SettleRegion(name string) (*market.AuctionRecord, error) {
	ri, ok := f.table.regionIdx[name]
	if !ok {
		return nil, fmt.Errorf("federation: no region %q", name)
	}
	out := f.settle([]int{ri})
	return out[0].Record, out[0].Err
}

// Tick settles every region's accumulated batch concurrently: it is
// settle over every region. Idle regions (empty books) report a nil
// record and nil error; a region that failed its settlement fault seam
// carries the injected error, and a settled one its clock's.
func (f *Federation) Tick() []RegionTick {
	out := f.settle(f.every())
	for i := range out {
		if errors.Is(out[i].Err, market.ErrNoOpenOrders) {
			out[i].Record, out[i].Err = nil, nil
		}
	}
	return out
}

// every lists every region's index, in registration order.
func (f *Federation) every() []int {
	all := make([]int, len(f.regions))
	for i := range all {
		all[i] = i
	}
	return all
}

// settle is the one settlement driver: the listed regions' clocks, then
// one gossip pass and one wave over them; out holds each region's record
// and error.
//
// Fault seams run first, serially in the listed order, before any state
// moves: a region failing its settlement seam gets the injected error and
// runs no clock, so a retry after the partition heals replays the
// identical round; one that passes consumes its gossip window. A lost
// gossip leaves the region's quote stale, which the router deprioritizes
// once it passes the staleness bound. Each passed region runs its clock
// and its decide phase (wave.go) on its own goroutine; then the gossip clock
// advances once, the passed regions with a clear gossip window are
// quoted, the wave is booked, and each auction that ran (an empty book's
// did not) counts toward the router's snapshot cadence, which keeps its
// WAL and recovery replay bounded. That snapshot is best effort, and
// settle returns no router error: the journal's Failing state says it.
func (f *Federation) settle(regions []int) []RegionTick {
	out := make([]RegionTick, len(regions))
	inj := f.inj.Load()
	passed, quoted := make([]int, 0, len(regions)), make([]int, 0, len(regions))
	for k, ri := range regions {
		name := f.regions[ri].name
		out[k].Region = name
		if err := inj.Region(fault.OpRegionSettle, name); err != nil {
			out[k].Err = err
			continue
		}
		passed = append(passed, k)
		if inj.Region(fault.OpRegionGossip, name) == nil {
			quoted = append(quoted, ri)
		}
	}
	if len(passed) == 0 {
		return out
	}

	f.mu.Lock()
	w := f.takeWaveLocked()
	f.mu.Unlock()
	clock := func(k int) {
		out[k].Record, _, out[k].Err = f.regions[regions[k]].ex.RunAuction()
		f.mu.Lock()
		f.decideLocked(w, regions[k])
		f.mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, k := range passed[:len(passed)-1] { // the last on this goroutine
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock(k)
		}()
	}
	clock(passed[len(passed)-1])
	wg.Wait()

	f.gossip(quoted)
	f.mu.Lock()
	f.bookLocked(w)
	before := f.settleCount
	for _, k := range passed {
		if !errors.Is(out[k].Err, market.ErrNoOpenOrders) {
			f.settleCount++
		}
	}
	// One snapshot covers any cadence multiples and an outage's events.
	if f.journal != nil && (f.journal.Failing() || f.snapshotEvery > 0 && f.settleCount/f.snapshotEvery > before/f.snapshotEvery) {
		_ = f.snapshotLocked()
	}
	f.mu.Unlock()
	return out
}

// Serve calls Tick once an epoch until ctx is cancelled, and returns
// ctx.Err(). The router's next journal write heals a failed one.
func (f *Federation) Serve(ctx context.Context, epoch time.Duration) error {
	if epoch <= 0 {
		return errors.New("federation: epoch must be positive")
	}
	t := time.NewTicker(epoch)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			f.Tick()
		}
	}
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
		rs.Auctions, rs.Settled = r.ex.AuctionTotals()
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

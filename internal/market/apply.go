package market

import (
	"errors"
	"fmt"

	"clustermarket/internal/core"
)

// ErrCorruptSettlement marks a Won record — a journaled order-settled
// event or a snapshot's order — whose winning-bundle index is absent or
// names no bundle of the order's bid. The index is the whole of a
// winner's allocation, so such a record cannot be applied: replaying it
// would grant nothing, or something the order never bid for.
var ErrCorruptSettlement = errors.New("market: won record does not name one of the order's bundles")

// wonBundle checks the winning-bundle index a Won record carries against
// the order's bid. On replay and restore the index is bytes from disk.
func wonBundle(id int, bid *core.Bid, idx *int) (int, error) {
	if idx == nil {
		return -1, fmt.Errorf("%w: order %d has no bundle index (records that carry the allocation as a vector predate this format)",
			ErrCorruptSettlement, id)
	}
	if n := bid.NumBundles(); *idx < 0 || *idx >= n {
		return -1, fmt.Errorf("%w: order %d won bundle %d of %d", ErrCorruptSettlement, id, *idx, n)
	}
	return *idx, nil
}

// ReplayedOrderError is a journaled order-submitted event the live
// ingress would have refused: its bid fails validation against the
// registry (a non-finite limit, a bundle of the wrong width, no user),
// or its team has no account. Replay stops there instead of booking an
// order no live path could have booked.
type ReplayedOrderError struct {
	OrderID int
	Team    string
	Err     error
}

func (e *ReplayedOrderError) Error() string {
	return fmt.Sprintf("market: replay: order %d for team %q fails ingress: %v", e.OrderID, e.Team, e.Err)
}

func (e *ReplayedOrderError) Unwrap() error { return e.Err }

// The apply layer: one deterministic mutator per event kind. Recovery
// replays the journal tail through applyEvent; the live mutation paths
// share the same appliers wherever the decision and the mutation can be
// separated safely:
//
//   - Settlement-phase events (order-attempted, order-settled,
//     auction-cleared, disbursed, order-placed, task-evicted) are logged
//     and then applied via applyEvent. The in-auction claim (settlement)
//     or settleMu (the rest) keeps any racing writer out between the log
//     and the apply.
//   - Book-entry events (account-opened, order-submitted,
//     order-cancelled) must mutate inside the same stripe critical
//     section that made the decision — releasing the lock between log
//     and apply would let a racing claim or submit interleave, so the
//     live paths in exchange.go log and mutate inline under the lock
//     and the appliers here serve replay only.
//
// Replay is single-threaded but the appliers still take the stripe
// locks, so one code path serves both uses.
func (e *Exchange) applyEvent(ev *Event) error {
	switch ev.Kind {
	case EvAccountOpened:
		return e.applyAccountOpened(ev)
	case EvOrderSubmitted:
		return e.applyOrderSubmitted(ev)
	case EvOrderCancelled:
		return e.applyOrderCancelled(ev)
	case EvOrderAttempted:
		return e.applyOrderAttempted(ev)
	case EvOrderSettled:
		return e.applyOrderSettled(ev)
	case EvAuctionCleared:
		return e.applyAuctionCleared(ev)
	case EvDisbursed:
		return e.applyDisbursed(ev)
	case EvOrderPlaced:
		_, err := e.applyOrderPlaced(ev)
		return err
	case EvTaskEvicted:
		return e.applyTaskEvicted(ev)
	default:
		return fmt.Errorf("market: unknown event kind %q", ev.Kind)
	}
}

func (e *Exchange) applyAccountOpened(ev *Event) error {
	as := e.accountShardFor(ev.Team)
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.accounts[ev.Team] != nil {
		return fmt.Errorf("market: replay: account %q exists", ev.Team)
	}
	as.accounts[ev.Team] = &account{team: ev.Team, balance: ev.Balance}
	return nil
}

// applyOrderSubmitted rebooks a replayed order. The slot check pins the
// sharded book's ID contract — ID k lives in stripe k%n at slot k/n —
// so a journal whose submit events arrive out of stripe order is
// rejected as corrupt rather than silently misfiled.
func (e *Exchange) applyOrderSubmitted(ev *Event) error {
	if ev.Bid == nil {
		return fmt.Errorf("market: replay: order %d has no bid", ev.OrderID)
	}
	// The decoded vectors are packed and dropped, as the live submit
	// paths do, so the recovered book equals the live one.
	bo := newBookedOrder(Order{ID: ev.OrderID, Team: ev.Team, Status: Open, Auction: -1, Bundle: -1}, ev.Bid)
	bo.bid.Pack()
	o := &bo.Order
	// The live submit validated the bid against this registry before it
	// logged the event; a record that would not pass the door is refused
	// rather than booked.
	if err := o.Bid.Validate(e.reg.Len()); err != nil {
		return &ReplayedOrderError{OrderID: o.ID, Team: o.Team, Err: err}
	}
	n := len(e.orderShards)
	os := e.orderShardFor(o.ID)
	if os == nil {
		return fmt.Errorf("market: replay: invalid order id %d", ev.OrderID)
	}
	if err := fitsRecord(o.ID, o.Auction, 0, o.Bid); err != nil {
		return err
	}
	as := e.accountShardFor(o.Team)
	os.mu.Lock()
	if o.ID/n != len(os.slots) || len(os.slots) >= maxStripeOrders {
		os.mu.Unlock()
		return fmt.Errorf("market: replay: order %d out of sequence (stripe holds %d orders)",
			o.ID, len(os.slots))
	}
	as.mu.Lock()
	a := as.accounts[o.Team]
	if a == nil {
		as.mu.Unlock()
		os.mu.Unlock()
		return &ReplayedOrderError{OrderID: o.ID, Team: o.Team, Err: fmt.Errorf("market: no account %q", o.Team)}
	}
	o.Team = a.team
	e.bookOrderLocked(os, a, o)
	as.mu.Unlock()
	os.mu.Unlock()
	// Each live submit consumed one round-robin slot; advancing the
	// counter per replayed order restores the stripe rotation.
	e.submitSeq.Add(1)
	return nil
}

// bookOrderLocked enters an open order into its stripe and commits its
// buy-side budget exposure to the team's account a. Both the order
// stripe's and a's account stripe's locks must be held (in that order —
// account stripes are always the inner lock).
//
//marketlint:allocfree
func (e *Exchange) bookOrderLocked(os *orderShard, a *account, o *Order) {
	if exp := o.Bid.MaxLimit(); exp > 0 {
		a.openBuy += exp
	}
	os.bookLocked(o)
	os.open = append(os.open, o)
	os.openCount++
}

// openOrderLocked resolves the open order a replayed or live event
// names; an archived order is reported with the state it ended in. The
// caller holds the stripe lock.
func (os *orderShard) openOrderLocked(id, j int, doing string) (*Order, error) {
	o, rec := os.lookupLocked(j)
	switch {
	case rec != nil:
		return nil, fmt.Errorf("market: replay: %s order %d in state %s", doing, id, OrderStatus(rec.status))
	case o == nil:
		return nil, fmt.Errorf("market: replay: no order %d", id)
	}
	return o, nil
}

func (e *Exchange) applyOrderCancelled(ev *Event) error {
	os := e.orderShardFor(ev.OrderID)
	if os == nil {
		return fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	j := ev.OrderID / len(e.orderShards)
	os.mu.Lock()
	o, err := os.openOrderLocked(ev.OrderID, j, "cancelling")
	if err != nil {
		os.mu.Unlock()
		return err
	}
	os.cancelLocked(j, o)
	os.mu.Unlock()
	e.releaseCommitment(o)
	return nil
}

func (e *Exchange) applyOrderAttempted(ev *Event) error {
	os := e.orderShardFor(ev.OrderID)
	if os == nil {
		return fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	os.mu.Lock()
	defer os.mu.Unlock()
	o, err := os.openOrderLocked(ev.OrderID, ev.OrderID/len(e.orderShards), "attempting")
	if err != nil {
		return err
	}
	if err := fitsRecord(o.ID, o.Auction, ev.Attempts, o.Bid); err != nil {
		return err
	}
	o.inAuction = false
	o.Attempts = ev.Attempts
	return nil
}

// applyOrderSettled is an order's terminal transition. Everything the
// event carries is checked before anything is mutated — on replay it is
// bytes from disk — and the stripe lock that flips the status also writes
// the archive record, so no reader ever finds a terminal order that is
// still an object and the settlement wave pays no second lock.
func (e *Exchange) applyOrderSettled(ev *Event) error {
	os := e.orderShardFor(ev.OrderID)
	if os == nil {
		return fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	j := ev.OrderID / len(e.orderShards)
	os.mu.Lock()
	o, err := os.openOrderLocked(ev.OrderID, j, "settling")
	if err != nil {
		os.mu.Unlock()
		return err
	}
	attempts, bundle := o.Attempts, -1
	if ev.Attempts > 0 {
		attempts = ev.Attempts
	}
	switch ev.Status {
	case Won:
		bundle, err = wonBundle(o.ID, o.Bid, ev.Bundle)
	case Lost, Unsettled:
	default:
		err = fmt.Errorf("market: replay: order %d settled to non-terminal state %s", o.ID, ev.Status)
	}
	if err == nil {
		err = fitsRecord(o.ID, ev.Auction, attempts, o.Bid)
	}
	if err == nil && ev.Status == Won {
		err = fitsLedger(ev.Auction)
	}
	if err != nil {
		os.mu.Unlock()
		return err
	}
	o.inAuction = false
	o.Auction = ev.Auction
	o.Attempts = attempts
	o.Status = ev.Status
	os.openCount--
	if ev.Status == Won {
		o.Bundle = bundle
		o.Payment = ev.Payment
	}
	os.archiveLocked(j, o)
	os.mu.Unlock()

	// o is off the book now — the archive holds the order — but still a
	// whole object in this goroutine's hands for the money movement.
	if ev.Status != Won {
		e.releaseCommitment(o)
		return nil
	}
	e.settleWin(o)
	e.creditBalance(OperatorAccount, o.Payment)
	e.postSettlement(ev.Auction, o.Team, o.ID, o.Payment)
	pools, qty := o.Grant()
	e.fleet.Quotas().ApplyAllocation(e.reg, o.Team, pools, qty)
	return nil
}

func (e *Exchange) applyAuctionCleared(ev *Event) error {
	if ev.Record == nil {
		return fmt.Errorf("market: replay: auction-cleared event has no record")
	}
	e.appendHistory(ev.Record)
	return nil
}

func (e *Exchange) applyDisbursed(ev *Event) error {
	if err := fitsLedger(ev.Auction); err != nil {
		return err
	}
	memo := "budget disbursement (" + ev.Policy + ")"
	for _, cr := range ev.Credits {
		e.creditBalance(cr.Team, cr.Amount)
		e.creditBalance(OperatorAccount, -cr.Amount)
		e.postCredit(ev.Auction, cr.Team, cr.Amount, memo, "budget disbursement to "+cr.Team)
	}
	return nil
}

// applyOrderPlaced re-runs the deterministic chunked placement for a won
// order. Given an identical fleet state, PlaceAllocationChunked visits
// clusters in sorted order with a fixed chunk shape and first-fit
// scheduling, so replay reproduces the original task IDs and machine
// assignments exactly.
func (e *Exchange) applyOrderPlaced(ev *Event) ([]PlacedTask, error) {
	o, err := e.Order(ev.OrderID) // a won order is archived: read it through the view
	if err != nil {
		return nil, fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	if o.Status != Won {
		return nil, fmt.Errorf("market: placing order %d in state %s", o.ID, o.Status)
	}
	var placed []PlacedTask
	pools, qty := o.Grant()
	e.fleet.PlaceAllocationChunked(e.reg, o.Team, pools, qty, func(clusterName, taskID string) {
		placed = append(placed, PlacedTask{Cluster: clusterName, TaskID: taskID})
		e.delta.recordPlace(clusterName, taskID)
	})
	return placed, nil
}

func (e *Exchange) applyTaskEvicted(ev *Event) error {
	c := e.fleet.Cluster(ev.Cluster)
	if c == nil {
		return fmt.Errorf("market: replay: unknown cluster %q", ev.Cluster)
	}
	if !c.Evict(ev.TaskID) {
		return fmt.Errorf("market: replay: no task %q in cluster %q", ev.TaskID, ev.Cluster)
	}
	e.delta.recordEvict(ev.Cluster, ev.TaskID)
	return nil
}

// PlacedTask identifies one fleet task scheduled through the exchange.
type PlacedTask struct {
	Cluster string `json:"cluster"`
	TaskID  string `json:"task"`
}

// fleetDelta tracks how the exchange has diverged the fleet from its
// as-built state: tasks placed through PlaceOrder (in placement order)
// and initial-fleet tasks evicted through EvictTask. Snapshots persist
// the delta so recovery can rebuild the fleet without replaying every
// placement since genesis. All access is under settleMu (live paths) or
// single-threaded (restore/replay), so no extra lock is needed.
type fleetDelta struct {
	// placed holds exchange-placed tasks in placement order; evicting one
	// tombstones its entry (zero value) rather than shifting the slice,
	// keeping eviction O(1) while preserving order for PlacedTasks.
	placed []taskRef
	index  map[taskRef]int
	// evicted holds initial-fleet tasks (not in placed) removed through
	// the exchange.
	evicted []taskRef
}

type taskRef struct {
	Cluster string `json:"cluster"`
	TaskID  string `json:"task"`
}

func (d *fleetDelta) recordPlace(clusterName, taskID string) {
	if d.index == nil {
		d.index = make(map[taskRef]int)
	}
	ref := taskRef{Cluster: clusterName, TaskID: taskID}
	d.index[ref] = len(d.placed)
	d.placed = append(d.placed, ref)
}

func (d *fleetDelta) recordEvict(clusterName, taskID string) {
	ref := taskRef{Cluster: clusterName, TaskID: taskID}
	if i, ok := d.index[ref]; ok {
		d.placed[i] = taskRef{}
		delete(d.index, ref)
		return
	}
	d.evicted = append(d.evicted, ref)
}

// live returns the surviving exchange-placed tasks in placement order.
func (d *fleetDelta) live() []taskRef {
	out := make([]taskRef, 0, len(d.index))
	for _, ref := range d.placed {
		if ref.TaskID != "" {
			out = append(out, ref)
		}
	}
	return out
}

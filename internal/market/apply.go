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

// The apply layer: one deterministic mutator per event kind. Recovery
// replays the journal tail through applyEvent; the live mutation paths
// share the same appliers wherever the decision and the mutation can be
// separated safely:
//
//   - Settlement-phase events (order-attempted, order-settled,
//     auction-cleared, balance-credited, disbursed, order-placed,
//     task-evicted) are logged and then applied via applyEvent. The
//     in-auction claim (settlement) or settleMu (the rest) keeps any
//     racing writer out between the log and the apply.
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
	case EvBalanceCredited:
		return e.applyBalanceCredited(ev)
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
	if _, ok := as.balances[ev.Team]; ok {
		return fmt.Errorf("market: replay: account %q exists", ev.Team)
	}
	as.balances[ev.Team] = ev.Balance
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
	n := len(e.orderShards)
	os := e.orderShardFor(o.ID)
	if os == nil {
		return fmt.Errorf("market: replay: invalid order id %d", ev.OrderID)
	}
	as := e.accountShardFor(o.Team)
	os.mu.Lock()
	if o.ID/n != len(os.orders) {
		os.mu.Unlock()
		return fmt.Errorf("market: replay: order %d out of sequence (stripe holds %d orders)",
			o.ID, len(os.orders))
	}
	as.mu.Lock()
	e.bookOrderLocked(os, as, o)
	as.mu.Unlock()
	os.mu.Unlock()
	// Each live submit consumed one round-robin slot; advancing the
	// counter per replayed order restores the stripe rotation.
	e.submitSeq.Add(1)
	return nil
}

// bookOrderLocked enters an open order into its stripe and commits its
// buy-side budget exposure. Both the order-stripe and account-stripe
// locks must be held (in that order — account stripes are always the
// inner lock).
//
//marketlint:allocfree
func (e *Exchange) bookOrderLocked(os *orderShard, as *accountShard, o *Order) {
	if exp := o.Bid.MaxLimit(); exp > 0 {
		as.openBuy[o.Team] += exp
	}
	os.orders = append(os.orders, o)
	os.open = append(os.open, o)
	os.openCount++
}

func (e *Exchange) applyOrderCancelled(ev *Event) error {
	o := e.liveOrder(ev.OrderID)
	if o == nil {
		return fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	os := e.orderShardFor(o.ID)
	os.mu.Lock()
	if o.Status != Open {
		os.mu.Unlock()
		return fmt.Errorf("market: replay: cancelling order %d in state %s", o.ID, o.Status)
	}
	o.Status = Cancelled
	os.openCount--
	os.mu.Unlock()
	e.releaseCommitment(o)
	return nil
}

func (e *Exchange) applyOrderAttempted(ev *Event) error {
	o := e.liveOrder(ev.OrderID)
	if o == nil {
		return fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	os := e.orderShardFor(o.ID)
	os.mu.Lock()
	o.inAuction = false
	o.Attempts = ev.Attempts
	os.mu.Unlock()
	return nil
}

func (e *Exchange) applyOrderSettled(ev *Event) error {
	o := e.liveOrder(ev.OrderID)
	if o == nil {
		return fmt.Errorf("market: replay: no order %d", ev.OrderID)
	}
	bundle := -1
	if ev.Status == Won {
		var err error
		if bundle, err = wonBundle(o.ID, o.Bid, ev.Bundle); err != nil {
			return err
		}
	}
	os := e.orderShardFor(o.ID)
	os.mu.Lock()
	if o.Status != Open {
		os.mu.Unlock()
		return fmt.Errorf("market: replay: settling order %d in state %s", o.ID, o.Status)
	}
	o.inAuction = false
	o.Auction = ev.Auction
	if ev.Attempts > 0 {
		o.Attempts = ev.Attempts
	}
	o.Status = ev.Status
	os.openCount--
	if ev.Status == Won {
		o.Bundle = bundle
		o.Payment = ev.Payment
	}
	os.mu.Unlock()

	switch ev.Status {
	case Won:
		e.settleWin(o)
		e.creditBalance(OperatorAccount, o.Payment)
		e.appendLedger([]LedgerEntry{
			{Auction: ev.Auction, Team: o.Team, Amount: -o.Payment,
				Memo: fmt.Sprintf("order %d settlement", o.ID)},
			{Auction: ev.Auction, Team: OperatorAccount, Amount: o.Payment,
				Memo: fmt.Sprintf("counterparty for order %d", o.ID)},
		})
		pools, qty := o.Grant()
		e.fleet.Quotas().ApplyAllocation(e.reg, o.Team, pools, qty)
	case Lost, Unsettled:
		e.releaseCommitment(o)
	default:
		return fmt.Errorf("market: replay: order %d settled to non-terminal state %s", o.ID, ev.Status)
	}
	return nil
}

func (e *Exchange) applyAuctionCleared(ev *Event) error {
	if ev.Record == nil {
		return fmt.Errorf("market: replay: auction-cleared event has no record")
	}
	e.appendHistory(ev.Record)
	return nil
}

func (e *Exchange) applyBalanceCredited(ev *Event) error {
	e.creditBalance(ev.Team, ev.Amount)
	e.creditBalance(OperatorAccount, -ev.Amount)
	e.appendLedger([]LedgerEntry{
		{Auction: ev.Auction, Team: ev.Team, Amount: ev.Amount, Memo: ev.Memo},
		{Auction: ev.Auction, Team: OperatorAccount, Amount: -ev.Amount,
			Memo: fmt.Sprintf("counterparty for credit to %s", ev.Team)},
	})
	return nil
}

func (e *Exchange) applyDisbursed(ev *Event) error {
	for _, cr := range ev.Credits {
		e.creditBalance(cr.Team, cr.Amount)
		e.creditBalance(OperatorAccount, -cr.Amount)
		e.appendLedger([]LedgerEntry{
			{Auction: ev.Auction, Team: cr.Team, Amount: cr.Amount,
				Memo: fmt.Sprintf("budget disbursement (%s)", ev.Policy)},
			{Auction: ev.Auction, Team: OperatorAccount, Amount: -cr.Amount,
				Memo: fmt.Sprintf("budget disbursement to %s", cr.Team)},
		})
	}
	return nil
}

// applyOrderPlaced re-runs the deterministic chunked placement for a won
// order. Given an identical fleet state, PlaceAllocationChunked visits
// clusters in sorted order with a fixed chunk shape and first-fit
// scheduling, so replay reproduces the original task IDs and machine
// assignments exactly.
func (e *Exchange) applyOrderPlaced(ev *Event) ([]PlacedTask, error) {
	o := e.liveOrder(ev.OrderID)
	if o == nil {
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

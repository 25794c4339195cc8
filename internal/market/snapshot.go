package market

import (
	"encoding/json"
	"fmt"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
)

// exchangeState is the JSON snapshot of everything an Exchange would
// otherwise have to replay from genesis: the full order book, accounts,
// ledger, history, quota grants, and the fleet delta (exchange-placed
// tasks pinned to their machines, plus initial-fleet tasks evicted
// through the exchange). The base fleet itself is NOT persisted — the
// owner rebuilds it deterministically and the delta is re-applied on
// top.
type exchangeState struct {
	SubmitSeq uint64             `json:"submit_seq"`
	Orders    []orderState       `json:"orders"`
	Balances  map[string]float64 `json:"balances"`
	OpenBuy   map[string]float64 `json:"open_buy,omitempty"`
	Ledger    []LedgerEntry      `json:"ledger,omitempty"`
	History   []*AuctionRecord   `json:"history,omitempty"`
	Quotas    []grantState       `json:"quotas,omitempty"`
	Placed    []placedState      `json:"placed,omitempty"`
	Evicted   []taskRef          `json:"evicted,omitempty"`
	// Machines pins every machine's committed-usage accumulator. The
	// accumulator's exact float value depends on the historical add/evict
	// order, so recomputing it from the surviving tasks can drift by an
	// ulp — enough to shift reserve prices off the crashed process's
	// trajectory.
	Machines []machineState `json:"machines,omitempty"`
	TaskSeq  int            `json:"task_seq"`
}

type machineState struct {
	Cluster string        `json:"cluster"`
	Machine int           `json:"machine"`
	Used    cluster.Usage `json:"used"`
}

type orderState struct {
	ID       int         `json:"id"`
	Team     string      `json:"team"`
	Bid      *core.Bid   `json:"bid"`
	Status   OrderStatus `json:"status"`
	Auction  int         `json:"auction"`
	Attempts int         `json:"attempts,omitempty"`
	// Bundle is the winning bundle's index, present exactly on Won orders
	// (a pointer: bundle 0 is a valid winner).
	Bundle  *int    `json:"bundle,omitempty"`
	Payment float64 `json:"payment,omitempty"`
}

type grantState struct {
	Team    string        `json:"team"`
	Cluster string        `json:"cluster"`
	Quota   cluster.Usage `json:"quota"`
}

type placedState struct {
	Cluster string        `json:"cluster"`
	TaskID  string        `json:"task"`
	Team    string        `json:"team"`
	Req     cluster.Usage `json:"req"`
	Machine int           `json:"machine"`
}

// maybeSnapshotLocked snapshots on the configured auction cadence.
// Callers hold settleMu. A cadence snapshot that still fails after the
// journal's retries is skipped, not fatal: the journal's rotation is
// failure-safe (the old WAL stays attached and appendable), so the
// auction that triggered it stands, replay just runs a longer tail, and
// the next cadence point tries again. The journal reports itself
// failing meanwhile, which is what /healthz shows.
func (e *Exchange) maybeSnapshotLocked(num int) {
	if e.journal == nil || e.cfg.SnapshotEvery <= 0 || num%e.cfg.SnapshotEvery != 0 {
		return
	}
	_ = e.snapshotLocked()
}

// snapshotLocked builds the state image and hands it to the journal.
// The caller holds settleMu; taking every order and account stripe on
// top excludes every event-logging path (settlement and book entry
// alike), so the image corresponds exactly to the journal sequence read
// under those same locks. The locks are released before the image is
// encoded and written, so submits journaled meanwhile carry sequence
// numbers past that stamp: the journal is told the stamp, not asked for
// its then-current sequence, and its rotation keeps every record past it.
func (e *Exchange) snapshotLocked() error {
	for s := range e.orderShards {
		e.orderShards[s].mu.Lock()
	}
	for s := range e.accountShards {
		e.accountShards[s].mu.Lock()
	}
	e.ledger.mu.RLock()
	e.histMu.RLock()
	at := e.journal.Seq()
	st, err := e.buildStateLocked()
	e.histMu.RUnlock()
	e.ledger.mu.RUnlock()
	for s := range e.accountShards {
		e.accountShards[s].mu.Unlock()
	}
	for s := range e.orderShards {
		e.orderShards[s].mu.Unlock()
	}
	if err != nil {
		return err
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("market: encode snapshot: %w", err)
	}
	return e.journal.Snapshot(raw, at)
}

func (e *Exchange) buildStateLocked() (*exchangeState, error) {
	st := &exchangeState{
		SubmitSeq: e.submitSeq.Load(),
		Balances:  make(map[string]float64),
		TaskSeq:   e.fleet.TaskSeq(),
	}
	// Every stripe is locked, so walking slot-major visits the orders in
	// ID order. Archived orders are read from their records into one
	// backing array of bids, one of winning-bundle indices and one pair
	// of row slabs, not materialised one view at a time.
	total, deepest, n := 0, 0, len(e.orderShards)
	for s := range e.orderShards {
		total += len(e.orderShards[s].slots)
		deepest = max(deepest, len(e.orderShards[s].slots))
	}
	st.Orders = make([]orderState, 0, total)
	bids, bundles := make([]core.Bid, total), make([]int, total)
	d := rowDecode{views: make([]pendingRows, 0, total)}
	var o Order
	for j := 0; j < deepest; j++ {
		for s := range e.orderShards {
			os := &e.orderShards[s]
			live, rec := os.lookupLocked(j)
			if live == nil && rec == nil {
				continue
			}
			i := len(st.Orders)
			if live != nil {
				o, bids[i] = *live, *live.Bid
			} else {
				os.fillLocked(j*n+s, rec, &o, &bids[i], &d)
			}
			st.Orders = append(st.Orders, orderState{ID: o.ID, Team: o.Team, Bid: &bids[i], Status: o.Status,
				Auction: o.Auction, Attempts: o.Attempts, Payment: o.Payment})
			if o.Status == Won {
				bundles[i] = o.Bundle
				st.Orders[i].Bundle = &bundles[i]
			}
		}
	}
	d.decode()
	for s := range e.accountShards {
		as := &e.accountShards[s]
		//marketlint:orderfree writes are team-keyed and the nil-check lazy init is idempotent
		for team, a := range as.accounts {
			st.Balances[team] = a.balance
			if a.openBuy != 0 {
				if st.OpenBuy == nil {
					st.OpenBuy = make(map[string]float64)
				}
				st.OpenBuy[team] = a.openBuy
			}
		}
	}
	st.Ledger = e.ledger.entriesLocked()
	st.History = append([]*AuctionRecord(nil), e.history...)
	for _, g := range e.fleet.Quotas().Grants() {
		if g.Quota.IsZero() {
			continue
		}
		st.Quotas = append(st.Quotas, grantState{Team: g.Team, Cluster: g.Cluster, Quota: g.Quota})
	}
	for _, ref := range e.delta.live() {
		c := e.fleet.Cluster(ref.Cluster)
		if c == nil {
			return nil, fmt.Errorf("market: snapshot: unknown cluster %q", ref.Cluster)
		}
		t, machineID, ok := c.TaskInfo(ref.TaskID)
		if !ok {
			return nil, fmt.Errorf("market: snapshot: placed task %q missing from cluster %q",
				ref.TaskID, ref.Cluster)
		}
		st.Placed = append(st.Placed, placedState{Cluster: ref.Cluster, TaskID: ref.TaskID,
			Team: t.Team, Req: t.Req, Machine: machineID})
	}
	st.Evicted = append([]taskRef(nil), e.delta.evicted...)
	for _, cn := range e.fleet.ClusterNames() {
		for _, m := range e.fleet.Cluster(cn).Machines() {
			st.Machines = append(st.Machines, machineState{Cluster: cn, Machine: m.ID, Used: m.Used()})
		}
	}
	return st, nil
}

// restoreState loads a snapshot image into a freshly constructed
// exchange whose fleet has been rebuilt to its as-built state. Runs
// single-threaded, before the exchange is shared. The image is bytes from
// disk: what the book's records cannot hold or explain — a status that is
// none of the five, a field wider than its record, a ledger entry out of
// position — is refused here, at the seam where it would be archived
// (Recover reports every refusal as ErrCorruptSnapshot).
func (e *Exchange) restoreState(raw []byte) error {
	var st exchangeState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	n := len(e.orderShards)
	for i := range st.Orders {
		s := &st.Orders[i]
		if s.Bid == nil {
			return fmt.Errorf("order %d has no bid", s.ID)
		}
		bo := newBookedOrder(Order{ID: s.ID, Team: s.Team, Status: s.Status, Auction: s.Auction,
			Attempts: s.Attempts, Bundle: -1, Payment: s.Payment}, s.Bid)
		bo.bid.Pack()
		o := &bo.Order
		if o.Status < Open || o.Status > Unsettled {
			return fmt.Errorf("order %d has unknown status %d", o.ID, int(o.Status))
		}
		// Every booked bid passed this at the door, against this registry.
		if err := o.Bid.Validate(e.reg.Len()); err != nil {
			return fmt.Errorf("order %d: %w", o.ID, err)
		}
		if o.Status == Won {
			var err error
			if o.Bundle, err = wonBundle(o.ID, o.Bid, s.Bundle); err != nil {
				return err
			}
		}
		if err := fitsRecord(o.ID, o.Auction, o.Attempts, o.Bid); err != nil {
			return err
		}
		os := e.orderShardFor(o.ID)
		if os == nil || o.ID/n != len(os.slots) || len(os.slots) >= maxStripeOrders {
			return fmt.Errorf("order %d out of sequence", o.ID)
		}
		// An open order is booked as the object the live path would have
		// made; a terminal one goes straight to the archive, through the
		// same copy a live transition makes.
		if o.Status == Open {
			os.bookLocked(o)
			os.open = append(os.open, o)
			os.openCount++
		} else {
			os.slots = append(os.slots, os.recordLocked(o))
		}
	}
	// Balances and commitments are restored verbatim (not re-derived from
	// the booked orders), so the image's money state is authoritative.
	//marketlint:orderfree each write lands in its own team-keyed stripe slot (accountShardFor is a pure hash)
	for team, bal := range st.Balances {
		e.accountShardFor(team).accountLocked(team).balance = bal
	}
	//marketlint:orderfree each write lands in its own team's record; an orphan refuses the whole image, whichever is met first
	for team, exp := range st.OpenBuy {
		a := e.accountShardFor(team).accounts[team]
		if a == nil {
			return fmt.Errorf("open buy commitment for %q, which has no balance", team)
		}
		a.openBuy = exp
	}
	for i, le := range st.Ledger {
		if le.Seq != i {
			return fmt.Errorf("ledger entry %d carries sequence number %d", i, le.Seq)
		}
		if err := fitsLedger(le.Auction); err != nil {
			return err
		}
		kind, arg := e.ledger.memoLocked(le.Memo)
		e.ledger.postLocked(le.Auction, le.Team, le.Amount, kind, arg)
	}
	for i, rec := range st.History {
		if rec == nil {
			return fmt.Errorf("history record %d is null", i)
		}
		if r := e.reg.Len(); len(rec.Reserve) != r || len(rec.Prices) != r {
			return fmt.Errorf("history record %d prices %d pools and reserves %d, the registry has %d", i, len(rec.Prices), len(rec.Reserve), r)
		}
		e.appendHistory(rec)
	}
	for _, g := range st.Quotas {
		e.fleet.Quotas().Grant(g.Team, g.Cluster, g.Quota)
	}
	// Re-apply the fleet delta: evictions first (freeing the capacity the
	// pinned placements assume), then placements on their recorded
	// machines, then the task-ID counter.
	for _, ref := range st.Evicted {
		c := e.fleet.Cluster(ref.Cluster)
		if c == nil {
			return fmt.Errorf("evicted task %q names unknown cluster %q", ref.TaskID, ref.Cluster)
		}
		if !c.Evict(ref.TaskID) {
			return fmt.Errorf("evicted task %q missing from rebuilt cluster %q", ref.TaskID, ref.Cluster)
		}
	}
	e.delta.evicted = append([]taskRef(nil), st.Evicted...)
	for _, p := range st.Placed {
		c := e.fleet.Cluster(p.Cluster)
		if c == nil {
			return fmt.Errorf("placed task %q names unknown cluster %q", p.TaskID, p.Cluster)
		}
		if err := c.PlaceAt(p.Machine, cluster.Task{ID: p.TaskID, Team: p.Team, Req: p.Req}); err != nil {
			return fmt.Errorf("re-place task %q: %w", p.TaskID, err)
		}
		e.delta.recordPlace(p.Cluster, p.TaskID)
	}
	for _, ms := range st.Machines {
		c := e.fleet.Cluster(ms.Cluster)
		if c == nil {
			return fmt.Errorf("machine state names unknown cluster %q", ms.Cluster)
		}
		if err := c.SetMachineUsed(ms.Machine, ms.Used); err != nil {
			return err
		}
	}
	e.fleet.SetTaskSeq(st.TaskSeq)
	e.submitSeq.Store(st.SubmitSeq)
	return nil
}

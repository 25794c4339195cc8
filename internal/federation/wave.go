package federation

import (
	"slices"
	"sync"

	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// The settlement wave: the router's side of one or more regional
// settlements, the one advance path of settle (and so of Tick, Serve and
// SettleRegion) and of SubmitProduct's settle-race reconciliation. It has
// two phases.
//
//   - Decide. Under f.mu, each source region reads the outcomes of the
//     legs waiting on it, in ascending federated id. Inside settle this
//     runs on the region's own goroutine right after its clock,
//     overlapping the slower regions' clocks. Nothing is booked and the
//     table is not written: the decided orders leave the region's open
//     list and wait in the wave.
//   - Book. Under f.mu, held by one goroutine throughout, every order that
//     lost or went unsettled queues its next leg for that leg's region, and
//     each target region books its queue on its own goroutine. A queue is in
//     (source region, federated id) order, the sequence a serial loop over
//     the sources would book in, so a region's ids and which legs a team's
//     budget there covers depend on the routing state, not the schedule. A
//     leg its region refuses (budget, a failed journal write) queues the
//     order's following leg for the next pass. After the last pass the
//     outcomes are applied to the table, Stats and the event stream, in
//     (source, id) order.
//
// When no leg is refused, the table, Stats, the events and every regional
// book come out exactly as a serial loop that books each failover as it
// reads its outcome (TestWaveMatchesSerialAdvance, whose oracle that loop
// is); a refusal moves the order's next booking one pass later
// (TestWaveRefusedLegBooksNextPass).

// wave is one wave's working state. Its buffers are kept on the
// Federation between waves (Federation.spare), so that the router
// allocates O(1) a wave.
type wave struct {
	// orders holds the decided orders, one run a source region in the
	// order the sources decided, each run in ascending id.
	orders []waveOrder
	// queue holds, per target region, the indices into orders of the legs
	// it books this pass.
	queue [][]int32
	// regions keeps each region's run of orders and its part in the wave.
	regions []waveRegion
	wg      sync.WaitGroup
}

// waveOrder is one decided order: the outcome of its leg in the source
// region and, while it fails over, the leg it books.
type waveOrder struct {
	payment float64
	// err is why this pass's booking of leg was refused, nil once booked.
	err error
	id  uint32
	// status is the market.OrderStatus of the leg in the source region.
	status uint8
	src    uint8
	// leg is the leg to book while booking is set, then the booked leg;
	// −1 when the order books none.
	leg     int16
	booking bool
}

// waveRegion is one region's part in a wave: as a source, its run
// orders[from:to]; the counts RouterStats shows.
type waveRegion struct {
	from, to                    int
	visited, failovers, refused int
	source, target              bool
}

// takeWaveLocked returns the kept wave, or a new one when a concurrent
// wave holds it. Callers hold f.mu.
func (f *Federation) takeWaveLocked() *wave {
	w := f.spare
	f.spare = nil
	if w == nil {
		n := len(f.regions)
		w = &wave{queue: make([][]int32, n), regions: make([]waveRegion, n)}
	}
	return w
}

// advance runs the wave over region ri alone, on the caller's goroutine.
func (f *Federation) advance(ri int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.takeWaveLocked()
	f.decideLocked(w, ri)
	f.bookLocked(w)
	_ = f.catchUpLocked()
}

// decideLocked is region ri's decide phase. Only orders whose active leg
// is in the region are read, from its open list — sorted first, so in
// ascending id whatever order the ids were listed in. Ids the list still
// holds for orders no longer waiting here are dropped unread, and legs
// still Open (the region's clock did not converge) stay listed for its
// next epoch. Callers hold f.mu.
func (f *Federation) decideLocked(w *wave, ri int) {
	r, t := f.regions[ri], &f.table
	ids := t.open[ri]
	slices.Sort(ids)
	from := len(w.orders)
	dec := slices.Grow(w.orders, len(ids))
	kept, visited := 0, 0
	for i, id32 := range ids {
		if i > 0 && id32 == ids[i-1] || t.waitingIn(id32) != ri {
			continue
		}
		rt := t.routeAt(int(id32))
		status, payment, ok := r.ex.Outcome(int(t.legAt(rt.legOff + uint32(rt.active)).order))
		if ok {
			visited++
		}
		if !ok || status == market.Open {
			ids[kept] = id32
			kept++
			continue
		}
		o := waveOrder{id: id32, status: uint8(status), payment: payment, src: uint8(ri), leg: -1}
		if (status == market.Lost || status == market.Unsettled) && int(rt.active)+1 < int(rt.legN) {
			o.leg, o.booking = rt.active+1, true
		}
		dec = append(dec, o)
	}
	t.open[ri] = ids[:kept]
	w.orders = dec
	w.regions[ri] = waveRegion{from: from, to: len(dec), visited: visited, source: true}
}

// bookLocked is the book phase: it runs the booking passes, then applies
// every decided order's outcome, emits its event and returns the wave's
// buffers to the Federation. Callers hold f.mu throughout.
func (f *Federation) bookLocked(w *wave) {
	t, orders := &f.table, w.orders
	for {
		queued := 0
		for ri := range w.regions {
			for i := w.regions[ri].from; i < w.regions[ri].to; i++ {
				if o := &orders[i]; o.booking {
					rt := t.routeAt(int(o.id))
					j := t.legAt(rt.legOff + uint32(o.leg)).region
					w.queue[j] = append(w.queue[j], int32(i))
					w.regions[j].target = true
					queued++
				}
			}
		}
		if queued == 0 {
			break
		}
		f.bookPass(w)
		for i := range orders {
			o := &orders[i]
			if !o.booking {
				continue
			}
			if o.err == nil {
				o.booking = false
				continue
			}
			rt := t.routeAt(int(o.id))
			k := rt.legOff + uint32(o.leg)
			t.setErr(k, legErr(o.err))
			w.regions[t.legAt(k).region].refused++
			if o.leg++; int(o.leg) == int(rt.legN) {
				o.leg, o.booking = -1, false
			}
		}
	}

	for ri := range w.regions {
		for i := w.regions[ri].from; i < w.regions[ri].to; i++ {
			f.applyLocked(w, &orders[i])
		}
	}

	for ri := range w.regions {
		wr, adv := &w.regions[ri], &f.advanced[ri]
		if wr.source {
			adv.Visited, adv.Failovers = wr.visited, wr.failovers
		}
		if wr.source || wr.target {
			adv.Refused = wr.refused
		}
		*wr = waveRegion{}
	}
	clear(orders) // drops the refusals' errors
	w.orders = orders[:0]
	f.spare = w
}

// applyLocked applies one decided order's outcome to the table and Stats
// and emits its event. Callers hold f.mu.
func (f *Federation) applyLocked(w *wave, o *waveOrder) {
	t, id := &f.table, int(o.id)
	rt := t.routeAt(id)
	status := market.OrderStatus(o.status)
	t.legAt(rt.legOff + uint32(rt.active)).setState(status)
	switch status {
	case market.Won:
		rt.status, rt.active = uint8(market.Won), -1
		rt.won, rt.payment = o.src, o.payment
		f.stats.Won++
	case market.Lost, market.Unsettled:
		if o.leg >= 0 {
			rt.active = o.leg
			t.track(id)
			f.stats.Failovers++
			w.regions[o.src].failovers++
			break
		}
		rt.status, rt.active = o.status, -1
		if status == market.Lost {
			f.stats.Lost++
		} else {
			f.stats.Unsettled++
		}
	case market.Cancelled:
		rt.status, rt.active = uint8(market.Cancelled), -1
	}
	if f.materializingLocked() {
		// The event carries the wholesale post-wave order state (a
		// failover's new leg booking included) plus the absolute router
		// counters, so replay reproduces this wave without touching the
		// regions.
		stats := f.stats
		_ = f.emitLocked(&FedEvent{Kind: EvFedOrderUpdated, Order: t.view(id), Stats: &stats})
	}
}

// bookPass books every target region's queue, each on its own goroutine
// (the last on the caller's), and empties the queues. A booking goroutine
// writes only its own queue's legs and wave entries and reads the table,
// which the caller's f.mu keeps still.
func (f *Federation) bookPass(w *wave) {
	last := -1
	for j, q := range w.queue {
		if len(q) == 0 {
			continue
		}
		if last >= 0 {
			w.wg.Add(1)
			go func(q []int32) {
				defer w.wg.Done()
				f.bookQueue(w.orders, q)
			}(w.queue[last])
		}
		last = j
	}
	f.bookQueue(w.orders, w.queue[last])
	w.wg.Wait()
	for j := range w.queue {
		w.queue[j] = w.queue[j][:0]
	}
}

// bookQueue books the queued orders' legs into their region, in queue
// order, and records each refusal in its wave entry.
func (f *Federation) bookQueue(orders []waveOrder, q []int32) {
	t := &f.table
	var rowBuf [8]resource.PoolRow
	for _, i := range q {
		o := &orders[i]
		rt := t.routeAt(int(o.id))
		leg := t.legAt(rt.legOff + uint32(o.leg))
		rows := t.appendRows(rowBuf[:0], t.clOff(rt, int(o.leg)), leg.clN)
		o.err = f.bookLeg(leg, rows, t.names[rt.team], t.names[rt.product], rt.qty, rt.limit)
	}
}

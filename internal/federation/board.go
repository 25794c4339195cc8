package federation

import (
	"math"
	"slices"
	"sort"
)

var inf = math.Inf(1)

// staleQuoteBound is the gossip-staleness bound: a board quote more than
// this many gossip ticks behind the clock is suspect — the region it
// prices may have been partitioned away since — and the router
// deprioritizes legs priced from it (see SubmitProduct's leg sort).
const staleQuoteBound = 3

// Quote is one region's entry on the federation's price board: the most
// recent view of that region's prices, refreshed by gossip ticks.
type Quote struct {
	Region string
	// Prices is indexed by the region's own registry.
	Prices []float64
	// Clearing reports whether the prices came from a converged auction
	// (true) or are the reserve-price fallback used before the region's
	// first settlement (false).
	Clearing bool
	// Tick is the gossip tick at which the quote was captured; stale
	// quotes carry older ticks.
	Tick int
}

// boardView is the price board as one immutable value: each region's
// latest quote by registration index — Region is "" for a region never
// quoted — and the gossip clock. The federation publishes a fresh view
// behind an atomic pointer for every change to either, under f.mu, so a
// router reads a consistent board and clock from one load without the
// lock.
type boardView struct {
	tick   int
	quotes []Quote
}

// publishLocked publishes the board with the gossip clock at tick and,
// when q is not nil, region ri's quote replaced by *q. Callers hold f.mu.
func (f *Federation) publishLocked(tick, ri int, q *Quote) {
	cur := f.board.Load()
	next := &boardView{tick: tick, quotes: cur.quotes}
	if q != nil {
		next.quotes = slices.Clone(cur.quotes)
		next.quotes[ri] = *q
	}
	f.board.Store(next)
}

// gossip advances the gossip clock once and quotes the listed regions at
// the new tick: the one quote pass, run by every settlement.
func (f *Federation) gossip(regions []int) int {
	f.mu.Lock()
	tick := f.board.Load().tick + 1
	f.publishLocked(tick, 0, nil)
	// The bare tick event keeps the recovered gossip clock in step even
	// when no quote can be refreshed.
	if f.materializingLocked() {
		_ = f.emitLocked(&FedEvent{Kind: EvFedGossip, Tick: tick})
	}
	f.mu.Unlock()

	// Quotes read region exchanges without holding f.mu: gossip must not
	// block routing, and region reads are themselves synchronized. A
	// concurrent settlement may have gossiped a region at a newer tick
	// while this pass was reading — never regress the board to the older
	// quote.
	for _, ri := range regions {
		q, err := f.regions[ri].quote(tick)
		if err != nil {
			continue
		}
		f.mu.Lock()
		if cur := &f.board.Load().quotes[ri]; cur.Region == "" || cur.Tick <= tick {
			f.acceptQuoteLocked(ri, &q)
		}
		f.mu.Unlock()
	}
	return tick
}

// acceptQuoteLocked publishes q as region ri's quote, keeping the gossip
// clock, and journals it after the fact it was accepted, so replay
// re-applies exactly the board updates that happened, in order. Callers
// hold f.mu.
func (f *Federation) acceptQuoteLocked(ri int, q *Quote) {
	f.publishLocked(f.board.Load().tick, ri, q)
	if f.materializingLocked() {
		_ = f.emitLocked(&FedEvent{Kind: EvFedGossip, Tick: q.Tick, Quote: q})
	}
}

// quoteLegs returns the board with every leg's region quoted, quoting on
// demand, under f.mu and at the current gossip tick, each region the
// board has never seen. A region whose quote cannot be computed stays
// unquoted. The region read is lock-ordered safe: f.mu is never taken
// inside exchange locks.
func (f *Federation) quoteLegs(legs []legDraft) *boardView {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range legs {
		ri, b := int(legs[i].region), f.board.Load()
		if b.quotes[ri].Region != "" {
			continue
		}
		if q, err := f.regions[ri].quote(b.tick); err == nil {
			f.acceptQuoteLocked(ri, &q)
		}
	}
	return f.board.Load()
}

// Board returns a copy of the price board sorted by region name.
func (f *Federation) Board() []Quote {
	return f.board.Load().sorted()
}

// sorted copies the view's quotes, sorted by region name.
func (b *boardView) sorted() []Quote {
	out := make([]Quote, 0, len(b.quotes))
	for _, q := range b.quotes {
		if q.Region != "" {
			q.Prices = slices.Clone(q.Prices)
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// GossipTick returns the current gossip clock — a monotonic counter of
// price-board refresh passes, exposed for /metrics.
func (f *Federation) GossipTick() int { return f.board.Load().tick }

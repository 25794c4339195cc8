package market

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/telemetry"
)

// exchangeMetrics is the always-on atomic counter block the /metrics
// exposition reads. Increments ride the live paths that already hold
// the relevant locks (or need none — these are single atomic adds);
// replay never increments, so after crash recovery the counters
// restart from zero like any restarted Prometheus target.
type exchangeMetrics struct {
	submitted     atomic.Uint64
	rejectedCount atomic.Uint64
	cancelled     atomic.Uint64
	won           atomic.Uint64
	lost          atomic.Uint64
	unsettled     atomic.Uint64
	auctions      atomic.Uint64
	converged     atomic.Uint64
	noConvergence atomic.Uint64
	rounds        atomic.Uint64
	// clock sums core.Result.Clock over the binding auctions: one short
	// lock an auction and a scrape, nothing in the round loop.
	clockMu sync.Mutex
	clock   core.ClockStats
}

// auctionRun counts one binding clock run and what its round loops did.
func (m *exchangeMetrics) auctionRun(res *core.Result) {
	m.auctions.Add(1)
	if res.Converged {
		m.converged.Add(1)
	} else {
		m.noConvergence.Add(1)
	}
	m.rounds.Add(uint64(res.Rounds))
	m.clockMu.Lock()
	m.clock.Add(res.Clock)
	m.clockMu.Unlock()
}

// rejected counts one rejected submission and passes the error
// through, so rejection sites stay one-line.
func (e *Exchange) rejected(err error) error {
	e.metrics.rejectedCount.Add(1)
	return err
}

// Metrics is a point-in-time copy of the exchange's operational
// counters.
type Metrics struct {
	// Order intake.
	Submitted, Rejected, Cancelled uint64
	// Settlement outcomes (orders).
	Won, Lost, Unsettled uint64
	// Clock auctions: total runs, convergence split, and the cumulative
	// round count (rate(Rounds)/rate(Auctions) is the mean clock length).
	Auctions, Converged, NoConvergence, Rounds uint64
	// Clock is the round loops' work over those auctions — lanes and
	// the held ones among them, rounds per lane, bundles re-priced,
	// proxies re-chosen, excess-demand rebuilds against quiet rounds —
	// which shows whether the incremental reductions engaged.
	Clock core.ClockStats
	// The book's size right now — gauges, the slope an operator watches on
	// a long-running daemon: orders that are still objects (open), orders
	// archived as records, the bytes of archive chunks allocated (order
	// records and the slab of their rows' byte runs), and ledger entries.
	LiveOrders, ArchivedOrders, ArchiveBytes, LedgerEntries int
}

// Metrics snapshots the counters. Each field is read atomically; the
// set is not one consistent cut, which is exactly a Prometheus
// scrape's contract.
func (e *Exchange) Metrics() Metrics {
	e.metrics.clockMu.Lock()
	clock := e.metrics.clock
	e.metrics.clockMu.Unlock()
	var live, archived, bytes int
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		live += os.openCount
		archived += os.recs.Len(recChunk)
		bytes += os.recs.Held()*int(unsafe.Sizeof(orderRec{})) + os.rows.Held()
		os.mu.RUnlock()
	}
	e.ledger.mu.RLock()
	entries := e.ledger.recs.Len(recChunk)
	e.ledger.mu.RUnlock()
	return Metrics{
		LiveOrders: live, ArchivedOrders: archived, ArchiveBytes: bytes, LedgerEntries: entries,
		Clock:         clock,
		Submitted:     e.metrics.submitted.Load(),
		Rejected:      e.metrics.rejectedCount.Load(),
		Cancelled:     e.metrics.cancelled.Load(),
		Won:           e.metrics.won.Load(),
		Lost:          e.metrics.lost.Load(),
		Unsettled:     e.metrics.unsettled.Load(),
		Auctions:      e.metrics.auctions.Load(),
		Converged:     e.metrics.converged.Load(),
		NoConvergence: e.metrics.noConvergence.Load(),
		Rounds:        e.metrics.rounds.Load(),
	}
}

// OpenOrdersPerStripe returns each order stripe's open-order count —
// the stripe-balance view /metrics exposes so a hot stripe (one
// stripe's lock contended far above its peers) is visible from the
// outside.
func (e *Exchange) OpenOrdersPerStripe() []int {
	out := make([]int, len(e.orderShards))
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		out[s] = os.openCount
		os.mu.RUnlock()
	}
	return out
}

// CommitmentsPerStripe returns each account stripe's total open
// buy-side budget commitment.
func (e *Exchange) CommitmentsPerStripe() []float64 {
	out := make([]float64, len(e.accountShards))
	for s := range e.accountShards {
		as := &e.accountShards[s]
		as.mu.Lock()
		teams := make([]string, 0, len(as.accounts))
		for team := range as.accounts {
			teams = append(teams, team)
		}
		sort.Strings(teams)
		var sum float64
		for _, team := range teams {
			sum += as.accounts[team].openBuy
		}
		out[s] = sum
		as.mu.Unlock()
	}
	return out
}

// Telemetry returns the firehose the exchange publishes to, or nil.
func (e *Exchange) Telemetry() *telemetry.Firehose { return e.fire }

// Journal returns the attached journal, or nil. The /metrics exposition
// reads its counters; the journal is set before the exchange is shared
// and never swapped live, so the unlocked read is safe.
func (e *Exchange) Journal() *journal.Journal { return e.journal }

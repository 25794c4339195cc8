package market

import (
	"context"
	"errors"
	"time"
)

// Loop drives epoch-batched settlement: orders accumulate in the book
// during each epoch and are settled in one clock auction per tick. This
// is the batching pattern that lets a single auctioneer absorb high
// order arrival rates — the web tier admits orders continuously (Section
// V.A's bid collection phase) while the clock runs at a fixed cadence.
type Loop struct {
	ex    *Exchange
	epoch time.Duration

	// OnTick, when set before Run, is called after every non-idle tick
	// with the auction outcome (rec may be non-nil even when err is
	// core.ErrNoConvergence). Idle ticks (empty book) are not reported.
	OnTick func(rec *AuctionRecord, err error)
}

// NewLoop builds an epoch loop over the exchange. Epoch must be
// positive.
func NewLoop(ex *Exchange, epoch time.Duration) (*Loop, error) {
	if ex == nil {
		return nil, errors.New("market: nil exchange")
	}
	if epoch <= 0 {
		return nil, errors.New("market: epoch must be positive")
	}
	return &Loop{ex: ex, epoch: epoch}, nil
}

// Run ticks until ctx is cancelled, settling the accumulated batch once
// per epoch. It returns ctx.Err(). Auction failures do not stop the
// loop; they are surfaced through OnTick.
func (l *Loop) Run(ctx context.Context) error {
	t := time.NewTicker(l.epoch)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			l.Tick()
		}
	}
}

// Tick settles the current batch immediately (one epoch boundary). It
// returns the auction record and error exactly as RunAuction does,
// except that an empty book yields (nil, nil): an idle tick is not an
// error for a periodically settling market.
func (l *Loop) Tick() (*AuctionRecord, error) {
	rec, _, err := l.ex.RunAuction()
	if errors.Is(err, ErrNoOpenOrders) {
		return nil, nil
	}
	if l.OnTick != nil {
		l.OnTick(rec, err)
	}
	return rec, err
}

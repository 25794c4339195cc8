package market

import (
	"encoding/json"
	"errors"
	"fmt"

	"clustermarket/internal/cluster"
	"clustermarket/internal/journal"
)

// ErrCorruptRecord marks a WAL record Recover cannot replay: one that does
// not decode, or that the book recovered so far could not have written.
// Recover's error wrapping it names the record's sequence number.
var ErrCorruptRecord = errors.New("market: corrupt journal record")

// Recover rebuilds an exchange from a journal recovery: it constructs a
// fresh exchange over the caller's rebuilt fleet, loads the snapshot
// (if any), replays the WAL tail through the apply layer, and attaches
// cfg.Journal so new mutations are journaled again. The fleet must be
// in its as-built state — the snapshot's fleet delta and the replayed
// placement events reproduce every exchange-driven change on top.
//
// Recover performs structural checks only (events must apply cleanly);
// callers should run invariant.CheckExchange on the result before
// serving — the market package cannot, as the invariant kernel imports
// this package.
func Recover(fleet *cluster.Fleet, cfg Config, rec *journal.Recovery) (*Exchange, error) {
	if rec == nil {
		return nil, errors.New("market: nil recovery")
	}
	// Detach the journal during replay: applying a recovered event must
	// not re-append it.
	j := cfg.Journal
	cfg.Journal = nil
	e, err := NewExchange(fleet, cfg)
	if err != nil {
		return nil, err
	}
	if len(rec.Snapshot) > 0 {
		if err := e.restoreState(rec.Snapshot); err != nil {
			return nil, fmt.Errorf("market: restore snapshot (seq %d): %w: %w", rec.SnapshotSeq, ErrCorruptSnapshot, err)
		}
	}
	for i, raw := range rec.Records {
		seq := rec.SnapshotSeq + uint64(i) + 1
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("market: decode journal record seq %d: %w: %w", seq, ErrCorruptRecord, err)
		}
		if err := e.applyEvent(&ev); err != nil {
			return nil, fmt.Errorf("market: replay seq %d (%s): %w: %w", seq, ev.Kind, ErrCorruptRecord, err)
		}
	}
	e.journal = j
	return e, nil
}

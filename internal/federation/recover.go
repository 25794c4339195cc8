package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"clustermarket/internal/journal"
)

// fedState is the JSON snapshot of the federation's routing state: the
// order table, price board, gossip clock, and router counters. The
// regional exchanges are NOT part of the image — each region journals
// its own book (see market.Snapshot) and is recovered separately before
// the federation is reassembled on top.
type fedState struct {
	NextID     int         `json:"next_id"`
	GossipTick int         `json:"gossip_tick"`
	Stats      Stats       `json:"stats"`
	Board      []Quote     `json:"board,omitempty"`
	Orders     []*FedOrder `json:"orders,omitempty"`
}

// AttachJournal attaches the routing journal. Every subsequent routing
// state change is logged as a FedEvent (or a snapshot: see emitLocked)
// before its call returns, and a snapshot is written every snapshotEvery
// settlements (non-positive
// disables the cadence; Snapshot can still be called explicitly). When
// recovering, call Restore first so replayed events are not re-journaled
// as new ones.
func (f *Federation) AttachJournal(j *journal.Journal, snapshotEvery int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.journal = j
	f.snapshotEvery = snapshotEvery
}

// snapshotLocked writes a consistent snapshot of the routing state to
// the attached journal and rotates its WAL, bounding recovery replay. It
// runs under f.mu, under which every routing mutation and its event
// happen: the image matches the journal's Seq.
func (f *Federation) snapshotLocked() error {
	b := f.board.Load()
	st := &fedState{NextID: f.table.routed(), GossipTick: b.tick, Stats: f.stats, Board: b.sorted()}
	st.Orders = f.table.views(0)
	raw, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("federation: encode snapshot: %w", err)
	}
	return f.journal.Snapshot(raw, f.journal.Seq())
}

// Restore loads a routing journal recovery into a freshly assembled
// federation: the snapshot image (if any) first, then a deterministic
// replay of the WAL tail through applyEvent. The member regions must
// already have been recovered to the same cut (their own journals are
// written in lockstep with this one — every routing event follows the
// regional mutations it records). Call before AttachJournal and before
// the federation is shared.
func (f *Federation) Restore(rec *journal.Recovery) error {
	if rec == nil {
		return errors.New("federation: Restore: nil recovery")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.table.routed() != 0 {
		return errors.New("federation: Restore: federation already has routing state")
	}
	if len(rec.Snapshot) > 0 {
		var st fedState
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			return fmt.Errorf("federation: decode snapshot: %w", err)
		}
		f.stats = st.Stats
		quotes := slices.Clone(f.board.Load().quotes)
		for _, q := range st.Board {
			ri, ok := f.table.regionIdx[q.Region]
			if !ok {
				return fmt.Errorf("federation: load snapshot at seq %d: quote for unknown region %q", rec.SnapshotSeq, q.Region)
			}
			quotes[ri] = q
		}
		f.board.Store(&boardView{tick: st.GossipTick, quotes: quotes})
		if st.NextID != len(st.Orders) {
			return fmt.Errorf("federation: load snapshot at seq %d: %w: next id %d over %d orders",
				rec.SnapshotSeq, ErrCorruptRoute, st.NextID, len(st.Orders))
		}
		for _, fo := range st.Orders {
			if err := f.table.store(fo, true); err != nil {
				return fmt.Errorf("federation: load snapshot at seq %d: %w", rec.SnapshotSeq, err)
			}
		}
	}
	for i, raw := range rec.Records {
		seq := rec.SnapshotSeq + uint64(i) + 1
		var ev FedEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("federation: decode record at seq %d: %w", seq, err)
		}
		if err := f.applyEvent(&ev); err != nil {
			return fmt.Errorf("federation: replay record at seq %d: %w", seq, err)
		}
	}
	return nil
}

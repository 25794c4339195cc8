package market

// Snapshot is test support: the exchange snapshots itself on its
// SnapshotEvery cadence, and only tests force one between.
//
// Snapshot writes a consistent snapshot of the exchange to its journal
// and rotates the WAL, bounding recovery replay. It is a no-op without
// a journal.
func (e *Exchange) Snapshot() error {
	if e.journal == nil {
		return nil
	}
	e.settleMu.Lock()
	defer e.settleMu.Unlock()
	return e.snapshotLocked()
}

package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j, rec
}

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := j.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func recordsAsStrings(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir, Options{})
	if !rec.Empty() {
		t.Fatalf("fresh dir recovery not empty: %+v", rec)
	}
	appendAll(t, j, "a", "b", "c")
	if got := j.Seq(); got != 3 {
		t.Fatalf("Seq = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got, want := fmt.Sprint(recordsAsStrings(rec2)), "[a b c]"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
	if rec2.Truncated {
		t.Fatalf("clean close reported truncation: %s", rec2.TruncReason)
	}
	if j2.Seq() != 3 {
		t.Fatalf("Seq after recovery = %d, want 3", j2.Seq())
	}
	// Appends continue the sequence.
	seq, err := j2.Append([]byte("d"))
	if err != nil || seq != 4 {
		t.Fatalf("Append after recovery: seq=%d err=%v, want 4", seq, err)
	}
}

func TestCrashPreservesAppendedRecords(t *testing.T) {
	dir := t.TempDir()
	// A process crash must lose no appended record.
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b", "c")
	j.Crash()

	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[a b c]"; got != want {
		t.Fatalf("recovered %s after crash, want %s", got, want)
	}
}

func TestTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "first", "second")
	j.Crash()

	// Tear the tail mid-record, as a crash mid-write would.
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	if err := os.WriteFile(wal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[first]"; got != want {
		t.Fatalf("recovered %s, want %s (last durable prefix)", got, want)
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
	wantOff := int64(walHeaderSize + 8 + len("first"))
	if rec.TruncOffset != wantOff {
		t.Fatalf("TruncOffset = %d, want %d", rec.TruncOffset, wantOff)
	}
	if !strings.Contains(rec.TruncReason, fmt.Sprintf("byte offset %d", wantOff)) {
		t.Fatalf("TruncReason %q does not name byte offset %d", rec.TruncReason, wantOff)
	}
	// The torn bytes must be physically gone so future appends don't
	// interleave with garbage.
	if fi, err := os.Stat(wal); err != nil || fi.Size() != wantOff {
		t.Fatalf("wal size = %v (err %v), want %d", fi.Size(), err, wantOff)
	}
}

func TestCRCCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "first", "second", "third")
	j.Crash()

	// Flip a payload byte in the middle record.
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	secondPayload := int64(walHeaderSize + 8 + len("first") + 8)
	data[secondPayload] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[first]"; got != want {
		t.Fatalf("recovered %s, want %s (everything after the corrupt record is discarded)", got, want)
	}
	if !rec.Truncated || !strings.Contains(rec.TruncReason, "CRC mismatch") {
		t.Fatalf("corruption not reported: truncated=%v reason=%q", rec.Truncated, rec.TruncReason)
	}
	wantOff := int64(walHeaderSize + 8 + len("first"))
	if rec.TruncOffset != wantOff {
		t.Fatalf("TruncOffset = %d, want %d", rec.TruncOffset, wantOff)
	}
	if !strings.Contains(rec.TruncReason, fmt.Sprintf("byte offset %d", wantOff)) {
		t.Fatalf("TruncReason %q does not name byte offset %d", rec.TruncReason, wantOff)
	}
}

func TestEmptyAndPartialSnapshot(t *testing.T) {
	for name, corrupt := range map[string]func(path string) error{
		"empty":   func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"partial": func(p string) error { return os.WriteFile(p, []byte(`{"seq": 2, "sta`), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{})
			appendAll(t, j, "a", "b")
			j.Crash()
			if err := corrupt(filepath.Join(dir, "snapshot.json")); err != nil {
				t.Fatal(err)
			}

			// The WAL still starts at seq 1, so the corrupt snapshot is
			// ignorable: full replay recovers everything.
			_, rec := mustOpen(t, dir, Options{})
			if got, want := fmt.Sprint(recordsAsStrings(rec)), "[a b]"; got != want {
				t.Fatalf("recovered %s, want %s", got, want)
			}
			if rec.SnapshotSeq != 0 || rec.Snapshot != nil {
				t.Fatalf("corrupt snapshot was served: seq=%d", rec.SnapshotSeq)
			}
			if len(rec.Notes) == 0 || !strings.Contains(rec.Notes[0], "snapshot") {
				t.Fatalf("corrupt snapshot not noted: %v", rec.Notes)
			}
		})
	}
}

func TestSnapshotRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{"world":"at-2"}`), j.Seq()); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, j, "c")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 2 {
		t.Fatalf("SnapshotSeq = %d, want 2", rec.SnapshotSeq)
	}
	if string(rec.Snapshot) != `{"world":"at-2"}` {
		t.Fatalf("Snapshot state = %s", rec.Snapshot)
	}
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[c]"; got != want {
		t.Fatalf("replay tail %s, want %s (pre-snapshot records must be rotated out)", got, want)
	}
	if last := rec.SnapshotSeq + uint64(len(rec.Records)); last != 3 {
		t.Fatalf("last seq = %d, want 3", last)
	}
}

// TestEmptyWALAfterSnapshotResumesSequence: a WAL that a snapshot rotated
// and nothing was appended to recovers at the snapshot's sequence, so
// the next append is numbered right after the snapshot.
func TestEmptyWALAfterSnapshotResumesSequence(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{"n":2}`), j.Seq()); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 2 || len(rec.Records) != 0 {
		t.Fatalf("recovered snap %d + %d records, want snap 2 and an empty WAL", rec.SnapshotSeq, len(rec.Records))
	}
	if seq, err := j2.Append([]byte("c")); err != nil || seq != 3 {
		t.Fatalf("first append after recovery = seq %d, %v; want seq 3", seq, err)
	}
	j2.Close()
	j3, rec := mustOpen(t, dir, Options{})
	defer j3.Close()
	if got := fmt.Sprint(rec.SnapshotSeq, " ", recordsAsStrings(rec)); got != "2 [c]" || j3.Seq() != 3 {
		t.Fatalf("recovered %s at seq %d, want 2 [c] at seq 3", got, j3.Seq())
	}
}

// TestSnapshotCarriesRecordsPastItsStamp: a caller builds its image, notes
// the sequence, lets go of its locks, and only then snapshots. Records
// appended in between were acknowledged and are not in the image, so the
// rotation must carry them into the replacement WAL — and keep doing so
// when the snapshot is retried with the same stamp after the journal has
// already rotated once, and for stamps the journal cannot honour.
func TestSnapshotCarriesRecordsPastItsStamp(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	at := j.Seq()
	appendAll(t, j, "c", "d")
	fsyncs := j.Metrics().Fsyncs
	for try := 0; try < 2; try++ { // the second is the retry of a rotated attempt
		if err := j.Snapshot([]byte(`{"world":"at-2"}`), at); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	}
	if got := j.Metrics().Fsyncs; got != fsyncs {
		t.Errorf("carrying the tail cost %d WAL fsyncs; it rides the replacement's own sync", got-fsyncs)
	}
	if err := j.Snapshot(nil, at+9); err == nil {
		t.Error("a stamp past the journal's sequence was accepted")
	}
	if err := j.Snapshot(nil, at-1); err == nil {
		t.Error("a stamp before the rotated WAL's first record was accepted")
	}
	appendAll(t, j, "e")
	j.Crash()

	_, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != at || string(rec.Snapshot) != `{"world":"at-2"}` {
		t.Fatalf("recovered snapshot seq %d state %s, want seq %d", rec.SnapshotSeq, rec.Snapshot, at)
	}
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[c d e]"; got != want {
		t.Fatalf("replay tail %s, want %s: records past the stamp were acknowledged", got, want)
	}
	if last := rec.SnapshotSeq + uint64(len(rec.Records)); last != 5 {
		t.Fatalf("last seq = %d, want 5", last)
	}
}

func TestCorruptSnapshotWithRotatedWALFailsHard(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{}`), j.Seq()); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "c")
	j.Crash()
	// The WAL was rotated (starts at seq 3); destroying the snapshot
	// loses seq 1–2 irrecoverably. Serving a partial world would violate
	// invariants, so Open must refuse.
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("Open with lost prefix: err = %v, want a hard 'records lost' error", err)
	}
}

func TestTornWALHeaderRebuilds(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a")
	if err := j.Snapshot([]byte(`{"n":1}`), j.Seq()); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	// Tear the rotated WAL inside its header.
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("JRN"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 1 || len(rec.Records) != 0 {
		t.Fatalf("recovery = snap %d + %d records, want snapshot-only", rec.SnapshotSeq, len(rec.Records))
	}
	if !rec.Truncated {
		t.Fatal("torn header not reported")
	}
	if seq, err := j2.Append([]byte("b")); err != nil || seq != 2 {
		t.Fatalf("Append after rebuild: seq=%d err=%v, want 2", seq, err)
	}
	j2.Close()
}

// TestTornWALHeaderKeepsLaterAppends: a WAL torn inside its header is
// rebuilt to start right after the snapshot, so a record appended after
// the rebuild is recovered, and a snapshot stamped behind the sequence
// carries the right tail.
func TestTornWALHeaderKeepsLaterAppends(t *testing.T) {
	tornAt2 := func(t *testing.T) (string, *Journal) {
		dir := t.TempDir()
		j, _ := mustOpen(t, dir, Options{})
		appendAll(t, j, "a", "b")
		if err := j.Snapshot([]byte(`{"n":2}`), j.Seq()); err != nil {
			t.Fatal(err)
		}
		j.Crash()
		if err := os.Truncate(filepath.Join(dir, "wal"), 2); err != nil {
			t.Fatal(err)
		}
		j2, rec := mustOpen(t, dir, Options{})
		if !rec.Truncated || rec.SnapshotSeq != 2 || len(rec.Records) != 0 {
			t.Fatalf("recovery = snap %d + %d records (truncated %v), want the torn header rebuilt after snap 2",
				rec.SnapshotSeq, len(rec.Records), rec.Truncated)
		}
		return dir, j2
	}
	for _, tc := range []struct {
		name   string
		append []string
		stamp  uint64 // 0: no snapshot after the rebuild
		want   string
	}{
		{"append", []string{"c"}, 0, "2 [c]"},
		{"snapshot behind the sequence", []string{"c", "d"}, 3, "3 [d]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, j := tornAt2(t)
			appendAll(t, j, tc.append...)
			if tc.stamp > 0 {
				if err := j.Snapshot([]byte(`{"n":3}`), tc.stamp); err != nil {
					t.Fatal(err)
				}
			}
			j.Crash()
			j2, rec := mustOpen(t, dir, Options{})
			defer j2.Close()
			if got := fmt.Sprint(rec.SnapshotSeq, " ", recordsAsStrings(rec)); got != tc.want {
				t.Fatalf("recovered snap and tail %s, want %s: every appended record was acknowledged", got, tc.want)
			}
		})
	}
}

func TestForeignWALRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("NOTJRNLxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Open over a foreign file: err = %v, want bad-magic error", err)
	}
}

func TestDoubleOpenRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	_, _, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second Open: err = %v, want lockfile refusal", err)
	}
}

func TestLockReleasedOnCloseAndCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _ := mustOpen(t, dir, Options{})
	j2.Crash()
	j3, _ := mustOpen(t, dir, Options{})
	j3.Close()
}

func TestClosedJournalErrors(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	j.Close()
	if _, err := j.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := j.Snapshot(nil, j.Seq()); err != ErrClosed {
		t.Fatalf("Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// appendAllocBudget is what one Append may allocate: the framed buffer
// handed to write(2). Nothing else on the write, fsync and metrics path
// touches the heap.
const appendAllocBudget = 1

// TestAppendAllocBudget gates Append's allocations exactly, fsync
// included.
func TestAppendAllocBudget(t *testing.T) {
	payload := make([]byte, 256)
	j, _ := mustOpen(t, t.TempDir(), Options{})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != appendAllocBudget {
		t.Errorf("Append allocates %.0f times a record, budget %d", allocs, appendAllocBudget)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryAppendFsyncIsCounted: each append is fsynced before it
// returns, through the one timed fsync path, so Metrics sees every
// fsync — counter and latency histogram both — and Close adds none.
func TestEveryAppendFsyncIsCounted(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 1})
	appendAll(t, j, "a", "b")
	if got := j.Metrics().Fsyncs; got != 2 {
		t.Fatalf("Fsyncs after two appends = %d, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := j.Metrics()
	samples := m.FsyncLatency.Inf
	for _, c := range m.FsyncLatency.Counts {
		samples += c
	}
	if m.Fsyncs != 2 || samples != 2 {
		t.Fatalf("after Close: Fsyncs = %d, latency samples = %d, want 2 and 2", m.Fsyncs, samples)
	}
}

// TestOpenRefusesFsyncWindow: every append is fsynced, so a window
// larger than one record is refused by name rather than ignored.
func TestOpenRefusesFsyncWindow(t *testing.T) {
	dir := t.TempDir()
	_, _, err := Open(dir, Options{FsyncEvery: 64})
	if err == nil || !strings.Contains(err.Error(), "FsyncEvery 64") {
		t.Fatalf("Open with FsyncEvery 64: %v, want a refusal naming FsyncEvery", err)
	}
	// The refusal holds no lock: the directory opens at once.
	j, _ := mustOpen(t, dir, Options{FsyncEvery: 1})
	j.Close()
}

// TestTornTailAfterSnapshot combines both repair paths: snapshot intact,
// tail torn — recovery is snapshot + the durable prefix of the tail.
func TestTornTailAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{"n":2}`), j.Seq()); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "c", "d")
	j.Crash()
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 2 {
		t.Fatalf("SnapshotSeq = %d, want 2", rec.SnapshotSeq)
	}
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[c]"; got != want {
		t.Fatalf("tail %s, want %s", got, want)
	}
	if last := rec.SnapshotSeq + uint64(len(rec.Records)); last != 3 {
		t.Fatalf("last seq = %d, want 3", last)
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
}

// TestSeqEncodingIsLittleEndian pins the on-disk header format: firstSeq
// is encoded little-endian after the magic, so journals are portable
// across architectures.
func TestSeqEncodingIsLittleEndian(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b", "c")
	if err := j.Snapshot([]byte(`{}`), j.Seq()); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(data[len(walMagic):walHeaderSize]); got != 4 {
		t.Fatalf("rotated wal firstSeq = %d, want 4", got)
	}
}

// TestExists: a directory holds a journal once Open has written its WAL,
// and not before; nothing but the journal's own files counts.
func TestExists(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if Exists(dir) {
		t.Fatal("a directory with no journal reports one")
	}
	j, _ := mustOpen(t, dir, Options{})
	j.Close()
	if !Exists(dir) {
		t.Fatal("an opened journal's directory reports none")
	}
}

package journal

// Disk-fault behavior at the journal layer, driven through the FS seam
// with an in-package flaky filesystem (internal/fault wraps this seam
// from outside; it cannot be imported here without a cycle). Pins the
// rollback contract — a failed append leaves the WAL byte-identical to
// never having tried, so the retry writes identical bytes — the heal
// loop that retries inside Append and Snapshot, the probe it runs
// between attempts, the failing state a fault past the loop leaves,
// rename-failure rotation safety, and the ErrLocked sentinel and
// torn-tail frame metadata marketd reports at startup.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// flakyFS fails a scripted number of upcoming operations, then heals.
type flakyFS struct {
	FS
	failWrites   int    // whole-write EIO
	shortWrites  int    // write half the buffer, then EIO
	quietShorts  int    // write half the buffer and report it, with no error
	failSyncs    int    // fsync EIO
	failRenameTo string // base name of a rename target to fail
	failRenames  int    // renames onto failRenameTo to fail
}

// Faults that outlast the heal loop: one per attempt, and for fsync
// one more per Probe between attempts.
const (
	outlastWrites = 1 + healRetries
	outlastSyncs  = 1 + 2*healRetries
)

func (f *flakyFS) Rename(oldpath, newpath string) error {
	if f.failRenames > 0 && filepath.Base(newpath) == f.failRenameTo {
		f.failRenames--
		return syscall.EIO
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	return &flakyFile{File: file, fs: f}, err
}

func (f *flakyFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	return &flakyFile{File: file, fs: f}, err
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (fl *flakyFile) Write(p []byte) (int, error) {
	if fl.fs.failWrites > 0 {
		fl.fs.failWrites--
		return 0, syscall.EIO
	}
	if fl.fs.shortWrites > 0 {
		fl.fs.shortWrites--
		n, _ := fl.File.Write(p[:len(p)/2])
		return n, syscall.EIO
	}
	if fl.fs.quietShorts > 0 {
		fl.fs.quietShorts--
		return fl.File.Write(p[:len(p)/2])
	}
	return fl.File.Write(p)
}

func (fl *flakyFile) Sync() error {
	if fl.fs.failSyncs > 0 {
		fl.fs.failSyncs--
		return syscall.EIO
	}
	return fl.File.Sync()
}

func TestErrLockedSentinel(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
}

// TestTornTailNamesFrameAndKind: the recovery report names which frame
// was discarded and what event kind it carried, when decodable.
func TestTornTailNamesFrameAndKind(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, `{"k":"acct-opened"}`, `{"k":"order-settled"}`)
	j.Crash()

	// Tear one byte off the last frame: enough to break it, little
	// enough that the kind stays decodable from the remains.
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := mustOpen(t, dir, Options{})
	defer j2.Close()
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
	if rec.TruncFrame != 1 {
		t.Errorf("TruncFrame = %d, want 1 (0-based index of the lost frame)", rec.TruncFrame)
	}
	if rec.TruncKind != "order-settled" {
		t.Errorf("TruncKind = %q, want decoded event kind", rec.TruncKind)
	}
}

// appendFaults are the three ways an append attempt fails.
var appendFaults = []struct {
	name string
	set  func(fs *flakyFS, n int)
	// outlast is how many faults outlast the heal loop.
	outlast int
}{
	{"write-eio", func(fs *flakyFS, n int) { fs.failWrites = n }, outlastWrites},
	{"short-write", func(fs *flakyFS, n int) { fs.shortWrites = n }, outlastWrites},
	{"fsync-eio", func(fs *flakyFS, n int) { fs.failSyncs = n }, outlastSyncs},
}

// TestAppendRollbackRetryClean: an append whose every attempt fails
// (write EIO, short write, or fsync EIO) rolls the WAL back to its
// pre-append length after each, so the caller's own retry lands as the
// one and only copy of the record.
func TestAppendRollbackRetryClean(t *testing.T) {
	for _, tc := range appendFaults {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &flakyFS{FS: OSFS()}
			j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
			appendAll(t, j, `{"k":"a"}`)

			tc.set(fs, tc.outlast)
			if _, err := j.Append([]byte(`{"k":"b"}`)); err == nil {
				t.Fatal("append faulted past the heal loop succeeded")
			}
			// The loop made every attempt, with a Probe between each.
			if left := fs.failWrites + fs.shortWrites + fs.failSyncs; left != 0 {
				t.Fatalf("%d armed faults left unconsumed by the heal loop", left)
			}
			if _, err := j.Append([]byte(`{"k":"b"}`)); err != nil {
				t.Fatalf("retried append: %v", err)
			}
			j.Close()

			j2, rec := mustOpen(t, dir, Options{})
			defer j2.Close()
			got := recordsAsStrings(rec)
			if len(got) != 2 || got[0] != `{"k":"a"}` || got[1] != `{"k":"b"}` {
				t.Errorf("recovered %v, want exactly [a b] — no duplicate, no torn remnant", got)
			}
			if rec.Truncated {
				t.Error("rollback left a torn tail for recovery to repair")
			}
		})
	}
}

// TestQuietShortWriteFailsAppend: a Write that stores half the frame and
// reports that count with no error fails the append with
// io.ErrShortWrite, the WAL is cut back to its pre-append bytes, and the
// caller's retry writes exactly the bytes a clean journal writes.
func TestQuietShortWriteFailsAppend(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyFS{FS: OSFS()}
	j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
	appendAll(t, j, `{"k":"a"}`)
	wal := filepath.Join(dir, "wal")
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	fs.quietShorts = outlastWrites
	if _, err := j.Append([]byte(`{"k":"b"}`)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("append over quiet short writes = %v, want io.ErrShortWrite", err)
	}
	if fs.quietShorts != 0 {
		t.Fatalf("%d short writes left unconsumed by the heal loop", fs.quietShorts)
	}
	if after, _ := os.ReadFile(wal); !bytes.Equal(after, before) {
		t.Fatalf("WAL is %d bytes after the failed append, want its %d from before", len(after), len(before))
	}
	if seq, err := j.Append([]byte(`{"k":"b"}`)); err != nil || seq != 2 {
		t.Fatalf("retried append = seq %d, %v; want seq 2", seq, err)
	}
	j.Close()

	clean := t.TempDir()
	c, _ := mustOpen(t, clean, Options{})
	appendAll(t, c, `{"k":"a"}`, `{"k":"b"}`)
	c.Close()
	got, _ := os.ReadFile(wal)
	want, _ := os.ReadFile(filepath.Join(clean, "wal"))
	if !bytes.Equal(got, want) {
		t.Errorf("WAL after the retry differs from a clean journal's:\n%q\n%q", got, want)
	}
}

// TestAppendHealsOneShotFault: a one-shot fault heals inside Append,
// and recovery shows the record exactly once.
func TestAppendHealsOneShotFault(t *testing.T) {
	for _, tc := range appendFaults {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &flakyFS{FS: OSFS()}
			j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
			appendAll(t, j, `{"k":"a"}`)

			tc.set(fs, 1)
			if seq, err := j.Append([]byte(`{"k":"b"}`)); err != nil || seq != 2 {
				t.Fatalf("append over a one-shot fault = %d, %v; want seq 2 healed", seq, err)
			}
			j.Close()

			j2, rec := mustOpen(t, dir, Options{})
			defer j2.Close()
			if got := recordsAsStrings(rec); len(got) != 2 || got[0] != `{"k":"a"}` || got[1] != `{"k":"b"}` || rec.Truncated {
				t.Errorf("recovered %v (truncated %v), want exactly [a b]", got, rec.Truncated)
			}
		})
	}
}

// TestProbeHealsSickDisk: probe fails while fsync fails and succeeds
// once the disk heals, without disturbing the WAL.
func TestProbeHealsSickDisk(t *testing.T) {
	fs := &flakyFS{FS: OSFS()}
	j, _ := mustOpen(t, t.TempDir(), Options{FS: fs})
	defer j.Close()
	appendAll(t, j, `{"k":"a"}`)
	fs.failSyncs = 1
	if err := j.probe(); err == nil {
		t.Fatal("probe on sick disk succeeded")
	}
	if err := j.probe(); err != nil {
		t.Fatalf("probe on healed disk: %v", err)
	}
}

// TestFailingJournalTriesOnce: a fault that outlasts the heal loop
// leaves the journal failing; while it is, each call makes one attempt,
// with no probe and so no backoff sleep between retries; the first
// call that succeeds clears it.
func TestFailingJournalTriesOnce(t *testing.T) {
	fs := &flakyFS{FS: OSFS()}
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
	appendAll(t, j, `{"k":"a"}`)
	if j.Failing() {
		t.Fatal("healthy journal reports failing")
	}

	fs.failWrites = outlastWrites
	if _, err := j.Append([]byte(`{"k":"b"}`)); err == nil {
		t.Fatal("append faulted past the heal loop succeeded")
	}
	if m := j.Metrics(); !j.Failing() || !m.Failing || m.Failures != 1 {
		t.Fatalf("after the loop: Failing %v, metrics %+v; want failing, 1 failure", j.Failing(), m)
	}

	for call := 0; call < 3; call++ {
		fs.failWrites = 2
		fsyncs := j.Metrics().Fsyncs
		if _, err := j.Append([]byte(`{"k":"b"}`)); err == nil {
			t.Fatal("append on a sick disk succeeded")
		}
		if fs.failWrites != 1 {
			t.Fatalf("a failing journal's call consumed %d faults, want one attempt", 2-fs.failWrites)
		}
		if got := j.Metrics().Fsyncs; got != fsyncs {
			t.Fatalf("a failing journal probed between attempts: fsyncs %d -> %d", fsyncs, got)
		}
		if err := j.Snapshot([]byte(`{"state":1}`), j.Seq()); err == nil {
			t.Fatal("snapshot on a sick disk succeeded")
		}
		if fs.failWrites != 0 {
			t.Fatalf("a failing journal's snapshot left %d faults, want one attempt", fs.failWrites)
		}
	}
	if m := j.Metrics(); !m.Failing || m.Failures != 7 {
		t.Fatalf("metrics %+v, want failing with 7 failures", m)
	}

	if seq, err := j.Append([]byte(`{"k":"b"}`)); err != nil || seq != 2 {
		t.Fatalf("append on the healed disk = %d, %v; want seq 2", seq, err)
	}
	if m := j.Metrics(); j.Failing() || m.Failing || m.Failures != 7 {
		t.Fatalf("after a success: Failing %v, metrics %+v; want cleared, 7 failures kept", j.Failing(), m)
	}
	j.Close()
	j2, rec := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := recordsAsStrings(rec); len(got) != 2 || got[1] != `{"k":"b"}` || rec.Truncated {
		t.Errorf("recovered %v (truncated %v), want exactly [a b]", got, rec.Truncated)
	}
}

// TestSnapshotRenameFailureIsSafe: a rename that fails on every heal
// attempt during snapshot install or WAL rotation must leave the
// journal appendable and every record recoverable — the old WAL is
// never displaced until its replacement is fully durable.
func TestSnapshotRenameFailureIsSafe(t *testing.T) {
	for _, target := range []string{"snapshot.json", "wal"} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			fs := &flakyFS{FS: OSFS()}
			j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
			appendAll(t, j, `{"k":"a"}`, `{"k":"b"}`)

			fs.failRenameTo, fs.failRenames = target, outlastWrites
			if err := j.Snapshot([]byte(`{"state":1}`), j.Seq()); err == nil {
				t.Fatal("snapshot with a rename failed past the heal loop succeeded")
			}
			appendAll(t, j, `{"k":"c"}`)
			j.Close()

			j2, rec := mustOpen(t, dir, Options{})
			defer j2.Close()
			if rec.Truncated {
				t.Error("rename failure left a torn WAL")
			}
			// Replay must still see every record not covered by an
			// installed snapshot; none may be lost.
			want := []string{`{"k":"a"}`, `{"k":"b"}`, `{"k":"c"}`}
			if target == "snapshot.json" {
				// Install failed: no snapshot, full WAL replay.
				if rec.SnapshotSeq != 0 {
					t.Errorf("SnapshotSeq = %d after failed install", rec.SnapshotSeq)
				}
			} else {
				// Snapshot installed, rotation failed: replay resumes
				// after the snapshot from the still-attached old WAL.
				if rec.SnapshotSeq != 2 {
					t.Errorf("SnapshotSeq = %d, want 2", rec.SnapshotSeq)
				}
				want = want[2:]
			}
			got := recordsAsStrings(rec)
			if len(got) != len(want) {
				t.Fatalf("recovered %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("recovered %v, want %v", got, want)
				}
			}
		})
	}
}

// TestSnapshotHealsOneShotFault: a one-shot rename failure during
// snapshot install or WAL rotation heals inside Snapshot; recovery is
// the snapshot plus each later record exactly once.
func TestSnapshotHealsOneShotFault(t *testing.T) {
	for _, target := range []string{"snapshot.json", "wal"} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			fs := &flakyFS{FS: OSFS()}
			j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
			appendAll(t, j, `{"k":"a"}`, `{"k":"b"}`)

			fs.failRenameTo, fs.failRenames = target, 1
			if err := j.Snapshot([]byte(`{"state":1}`), j.Seq()); err != nil {
				t.Fatalf("snapshot over a one-shot rename failure: %v", err)
			}
			appendAll(t, j, `{"k":"c"}`)
			j.Close()

			j2, rec := mustOpen(t, dir, Options{})
			defer j2.Close()
			if got := recordsAsStrings(rec); rec.SnapshotSeq != 2 || len(got) != 1 || got[0] != `{"k":"c"}` || rec.Truncated {
				t.Errorf("recovered snapshot at %d + %v (truncated %v), want 2 + [c]", rec.SnapshotSeq, got, rec.Truncated)
			}
		})
	}
}

package journal

// Disk-fault behavior at the journal layer, driven through the FS seam
// with an in-package flaky filesystem (internal/fault wraps this seam
// from outside; it cannot be imported here without a cycle). Pins the
// rollback contract — a failed append leaves the WAL byte-identical to
// never having tried, so the retry writes identical bytes — plus the
// Probe heal path, rename-failure rotation safety, and the ErrLocked
// sentinel and torn-tail frame metadata marketd reports at startup.

import (
	"errors"
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
	failSyncs    int    // fsync EIO
	failRenameTo string // base name of a rename target to fail once
}

func (f *flakyFS) Rename(oldpath, newpath string) error {
	if f.failRenameTo != "" && filepath.Base(newpath) == f.failRenameTo {
		f.failRenameTo = ""
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

// TestAppendRollbackRetryClean: a failed append (write EIO, short write,
// or fsync EIO) rolls the WAL back to its pre-append length, so the
// retry lands as the one and only copy of the record.
func TestAppendRollbackRetryClean(t *testing.T) {
	arm := []struct {
		name string
		set  func(fs *flakyFS)
	}{
		{"write-eio", func(fs *flakyFS) { fs.failWrites = 1 }},
		{"short-write", func(fs *flakyFS) { fs.shortWrites = 1 }},
		{"fsync-eio", func(fs *flakyFS) { fs.failSyncs = 1 }},
	}
	for _, tc := range arm {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &flakyFS{FS: OSFS()}
			j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
			appendAll(t, j, `{"k":"a"}`)

			tc.set(fs)
			if _, err := j.Append([]byte(`{"k":"b"}`)); err == nil {
				t.Fatal("faulted append succeeded")
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

// TestProbeHealsSickDisk: Probe fails while fsync fails and succeeds
// once the disk heals, without disturbing the WAL.
func TestProbeHealsSickDisk(t *testing.T) {
	fs := &flakyFS{FS: OSFS()}
	j, _ := mustOpen(t, t.TempDir(), Options{FS: fs})
	defer j.Close()
	appendAll(t, j, `{"k":"a"}`)
	fs.failSyncs = 1
	if err := j.Probe(); err == nil {
		t.Fatal("probe on sick disk succeeded")
	}
	if err := j.Probe(); err != nil {
		t.Fatalf("probe on healed disk: %v", err)
	}
}

// TestSnapshotRenameFailureIsSafe: a failed rename during snapshot
// install or WAL rotation must leave the journal appendable and every
// record recoverable — the old WAL is never displaced until its
// replacement is fully durable.
func TestSnapshotRenameFailureIsSafe(t *testing.T) {
	for _, target := range []string{"snapshot.json", "wal"} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			fs := &flakyFS{FS: OSFS()}
			j, _ := mustOpen(t, dir, Options{FS: fs, FsyncEvery: 1})
			appendAll(t, j, `{"k":"a"}`, `{"k":"b"}`)

			fs.failRenameTo = target
			if err := j.Snapshot([]byte(`{"state":1}`), j.Seq()); err == nil {
				t.Fatal("snapshot with failed rename succeeded")
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

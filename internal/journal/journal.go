// Package journal is the durability layer under the event-sourced
// exchange: an append-only write-ahead log of framed event records plus
// a periodically rewritten snapshot, stored together in one directory.
//
// Layout and protocol:
//
//   - LOCK — a flock(2)-held lockfile. Open refuses the directory while
//     another live process holds it; the kernel releases the lock when
//     the holder dies, so a crashed process never wedges recovery.
//   - wal — the write-ahead log: a 14-byte header (magic "JRNL1\n" plus
//     the little-endian sequence number of the first record) followed by
//     length+CRC framed records: [uint32 len][uint32 crc32(payload)]
//     [payload]. Every append is written and fsynced before it returns,
//     so neither a process kill nor power loss takes an acknowledged
//     record.
//   - snapshot.json — {"seq": N, "state": …}: the caller's full state at
//     sequence N, written tmp+rename+dir-fsync so it is atomically either
//     the old or the new snapshot. After a durable snapshot the WAL is
//     rotated: a fresh wal starting at N+1 replaces it, bounding replay.
//
// Recovery = snapshot + replay of the WAL tail. A torn tail — a partial
// frame or a CRC mismatch, the signature of a mid-write crash — is
// physically truncated to the last durable prefix and reported (with the
// byte offset, frame index, and best-effort event kind) in Recovery,
// never served; Open fails hard only when the surviving files cannot
// reconstruct any consistent prefix (for instance, a rotated WAL whose
// covering snapshot is unreadable).
//
// Disk faults at runtime are first-class, not just crash artifacts:
// every disk operation goes through the Options.FS seam, and a failed
// append (write error, short write, or a failed fsync)
// rolls the WAL back to its pre-append length — no partial frame is
// ever readable and a retried append reproduces the identical byte
// stream. Append and Snapshot heal a transient fault burst themselves:
// a failed attempt is retried a bounded number of times, each after a
// doubling backoff and a probe. Only a fault that outlasts the loop
// reaches the caller; the journal is then failing (Failing) until its
// next call succeeds, and makes each call in between one attempt, so a
// dead disk costs a caller one write, not the loop's sleeps.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clustermarket/internal/telemetry"
)

// walMagic begins every WAL file; the trailing newline makes `head -1`
// on a journal identify itself.
var walMagic = []byte("JRNL1\n")

const walHeaderSize = 6 + 8 // magic + little-endian firstSeq

// ErrClosed is returned by operations on a closed (or crashed) journal.
var ErrClosed = errors.New("journal: closed")

// ErrLocked is wrapped into Open's error when another live process
// holds the directory flock, so supervisors can distinguish a
// lock-held race (retryable: the old process is still shutting down)
// from real damage. Test with errors.Is.
var ErrLocked = errors.New("journal: directory locked")

// ErrCorruptWAL is wrapped into Open's error when the WAL has no prefix to
// recover: a foreign header, or a first record past what the snapshot
// covers, so the records between are lost. A torn or corrupt tail is not
// one: Open truncates it and recovers the records before it.
var ErrCorruptWAL = errors.New("journal: corrupt wal")

// Options tunes a Journal.
type Options struct {
	// FsyncEvery is not a window: every append is fsynced before it
	// returns. Open refuses a value above 1 rather than acknowledge
	// records that power loss could take.
	FsyncEvery int
	// FS is the filesystem the journal operates through; nil means the
	// real one (OSFS). Tests and internal/fault substitute an injecting
	// wrapper to exercise the disk-failure paths deterministically.
	FS FS
}

// Recovery is what Open found on disk: the latest durable snapshot (if
// any) and the WAL records after it, in append order. Seq numbers are
// 1-based; record i carries sequence SnapshotSeq+1+i.
type Recovery struct {
	// SnapshotSeq is the sequence the snapshot covers (0 = no snapshot).
	SnapshotSeq uint64
	// Snapshot is the caller state stored at SnapshotSeq, nil when none.
	Snapshot []byte
	// Records are the WAL payloads after the snapshot, in order.
	Records [][]byte
	// Truncated reports that a torn tail was cut back; TruncOffset is the
	// byte offset of the first discarded byte and TruncReason says why.
	Truncated   bool
	TruncOffset int64
	TruncReason string
	// TruncFrame is the 0-based index, within this WAL, of the first
	// discarded frame, and TruncKind the event kind decoded (best
	// effort) from whatever payload bytes of it survive — together they
	// tell an operator *what* was lost, not just where. TruncKind is ""
	// when the bytes are undecodable. Only meaningful when Truncated.
	TruncFrame int
	TruncKind  string
	// Notes collects non-fatal recovery observations (ignored snapshots,
	// rebuilt WAL headers, truncations).
	Notes []string
}

// Empty reports whether the directory held no durable state at all —
// the fresh-start case callers use to decide whether to seed a world.
func (r *Recovery) Empty() bool { return r.SnapshotSeq == 0 && len(r.Records) == 0 }

// Journal is an open WAL + snapshot directory. All methods are safe for
// concurrent use; Append order defines the global sequence order.
type Journal struct {
	mu    sync.Mutex
	dir   string
	fs    FS
	wal   File
	lock  *os.File
	seq   uint64 // last assigned sequence number
	first uint64 // sequence number of the attached WAL's first record
	good  int64  // byte length of the fully-framed WAL prefix
	torn  bool   // a failed write left a tail past good that must be cut
	dead  bool

	// Operational counters behind /metrics. Atomic so Metrics never
	// takes j.mu (a scrape must not contend with an append); the
	// fsync-latency histogram wraps the wal.Sync calls, which run under
	// j.mu and so time exactly the commit path a writer waits on.
	appends   atomic.Uint64
	bytes     atomic.Uint64
	fsyncs    atomic.Uint64
	snapshots atomic.Uint64
	fsyncLat  *telemetry.Histogram
	// failing is set when a call's error outlasts the heal loop and
	// cleared by the next call that succeeds; failures counts the calls
	// that set it.
	failing  atomic.Bool
	failures atomic.Uint64
}

// Metrics is a point-in-time copy of the journal's operational
// counters.
type Metrics struct {
	// Appends and Bytes count framed records and frame bytes durably
	// acknowledged to the WAL (headers included); rolled-back appends
	// are not counted.
	Appends, Bytes uint64
	// Fsyncs counts fsyncs of the WAL; FsyncLatency is
	// their latency distribution. Snapshots counts durable snapshot
	// rotations.
	Fsyncs, Snapshots uint64
	FsyncLatency      telemetry.HistogramSnapshot
	// Failing reports that the last Append or Snapshot
	// failed past the heal loop; Failures counts such calls.
	Failing  bool
	Failures uint64
}

// Metrics snapshots the counters without taking the journal lock.
func (j *Journal) Metrics() Metrics {
	return Metrics{
		Appends:      j.appends.Load(),
		Bytes:        j.bytes.Load(),
		Fsyncs:       j.fsyncs.Load(),
		Snapshots:    j.snapshots.Load(),
		FsyncLatency: j.fsyncLat.Snapshot(),
		Failing:      j.failing.Load(),
		Failures:     j.failures.Load(),
	}
}

// Failing reports whether the last Append or Snapshot
// failed past the heal loop: the disk has not accepted a write since.
func (j *Journal) Failing() bool { return j.failing.Load() }

// syncWALLocked is the single timed fsync path: every WAL fsync goes
// through here so the latency histogram and counter see them all.
func (j *Journal) syncWALLocked() error {
	start := time.Now()
	err := j.wal.Sync()
	j.fsyncLat.Observe(time.Since(start))
	j.fsyncs.Add(1)
	return err
}

type snapshotFile struct {
	Seq   uint64          `json:"seq"`
	State json.RawMessage `json:"state"`
}

// Open acquires the directory (creating it if needed), recovers its
// durable state, and returns the journal positioned to append after the
// recovered prefix. A second Open of the same directory by a live
// process fails with an error wrapping ErrLocked.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.FsyncEvery > 1 {
		return nil, nil, fmt.Errorf("journal: FsyncEvery %d refused: every append is fsynced, there is no window", opts.FsyncEvery)
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, fs: fs, lock: lock, fsyncLat: telemetry.NewFsyncHistogram()}
	rec, err := j.recover()
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	return j, rec, nil
}

// acquireLock flocks dir/LOCK exclusively, non-blocking. The lock dies
// with the process, so stale lockfiles never block recovery. The lock
// is raw os, never behind the FS seam: flock needs a real descriptor.
func acquireLock(dir string) (*os.File, error) {
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open lockfile: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: directory %s is locked by another process (flock %s: %v): %w", dir, path, err, ErrLocked)
	}
	return f, nil
}

// The journal's two files in its directory; no other package names them.
const (
	walName  = "wal"
	snapName = "snapshot.json"
)

func (j *Journal) walPath() string  { return filepath.Join(j.dir, walName) }
func (j *Journal) snapPath() string { return filepath.Join(j.dir, snapName) }

// Exists reports whether dir holds a journal's WAL or snapshot, without
// opening, and so locking or creating, anything in it.
func Exists(dir string) bool {
	_, werr := os.Stat(filepath.Join(dir, walName))
	_, serr := os.Stat(filepath.Join(dir, snapName))
	return werr == nil || serr == nil
}

// recover loads the snapshot and WAL tail, repairing a torn tail, and
// leaves j.wal open for appends.
func (j *Journal) recover() (*Recovery, error) {
	rec := &Recovery{}

	// Snapshot: an unreadable file (empty, partial, corrupt JSON) is
	// ignored with a note — recovery can still succeed from a full WAL.
	var snapSeq uint64
	if raw, err := j.fs.ReadFile(j.snapPath()); err == nil {
		var snap snapshotFile
		if jerr := json.Unmarshal(raw, &snap); jerr != nil {
			rec.Notes = append(rec.Notes, fmt.Sprintf("snapshot %s unreadable (%v); ignored", j.snapPath(), jerr))
		} else {
			snapSeq = snap.Seq
			rec.SnapshotSeq = snap.Seq
			rec.Snapshot = snap.State
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}

	data, err := j.fs.ReadFile(j.walPath())
	switch {
	case os.IsNotExist(err):
		if err := j.writeFreshWAL(snapSeq + 1); err != nil {
			return nil, err
		}
		j.seq = snapSeq
		j.good = walHeaderSize
		j.first = snapSeq + 1
	case err != nil:
		return nil, fmt.Errorf("journal: read wal: %w", err)
	default:
		firstSeq, payloads, goodLen, reason, tornTail, perr := parseWAL(data)
		if perr != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrCorruptWAL, j.walPath(), perr)
		}
		if goodLen < walHeaderSize {
			// The header itself is torn (empty or partial file): nothing in
			// this WAL is recoverable, so rebuild it after the snapshot.
			rec.Truncated = true
			rec.TruncOffset = goodLen
			rec.TruncReason = reason
			rec.Notes = append(rec.Notes, fmt.Sprintf("wal %s: %s; rebuilt empty at seq %d", j.walPath(), reason, snapSeq+1))
			if err := j.writeFreshWAL(snapSeq + 1); err != nil {
				return nil, err
			}
			j.seq = snapSeq
			j.good = walHeaderSize
			j.first = snapSeq + 1
			break
		}
		if reason != "" {
			rec.Truncated = true
			rec.TruncOffset = goodLen
			rec.TruncReason = reason
			rec.TruncFrame = len(payloads)
			rec.TruncKind = payloadKind(tornTail)
			lost := fmt.Sprintf("frame %d", rec.TruncFrame)
			if rec.TruncKind != "" {
				lost += fmt.Sprintf(" (%s event)", rec.TruncKind)
			}
			rec.Notes = append(rec.Notes, fmt.Sprintf(
				"wal %s: %s; discarded %s, truncated to last durable prefix (%d bytes, %d records)",
				j.walPath(), reason, lost, goodLen, len(payloads)))
			if err := j.fs.Truncate(j.walPath(), goodLen); err != nil {
				return nil, fmt.Errorf("journal: truncate torn wal: %w", err)
			}
		}
		if firstSeq > snapSeq+1 {
			return nil, fmt.Errorf(
				"%w: %s starts at seq %d but the latest durable snapshot covers only seq %d — records %d..%d are lost",
				ErrCorruptWAL, j.walPath(), firstSeq, snapSeq, snapSeq+1, firstSeq-1)
		}
		last := firstSeq + uint64(len(payloads)) - 1
		if len(payloads) == 0 {
			last = firstSeq - 1
		}
		for i, p := range payloads {
			if firstSeq+uint64(i) <= snapSeq {
				continue // already folded into the snapshot
			}
			rec.Records = append(rec.Records, p)
		}
		j.seq = last
		if j.seq < snapSeq {
			j.seq = snapSeq
		}
		j.good = goodLen
		j.first = firstSeq
	}

	f, err := j.fs.OpenFile(j.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open wal for append: %w", err)
	}
	j.wal = f
	return rec, nil
}

// parseWAL walks the framed records. It returns the parsed payloads,
// the byte length of the valid prefix, and — when the file ends in a
// torn or corrupt frame — a human reason naming the byte offset plus
// whatever payload bytes of the offending frame survive (for
// best-effort kind identification). A foreign header (wrong magic) is
// a hard error.
func parseWAL(data []byte) (firstSeq uint64, payloads [][]byte, goodLen int64, reason string, torn []byte, err error) {
	if len(data) < walHeaderSize {
		return 0, nil, int64(len(data)),
			fmt.Sprintf("torn header: %d of %d bytes", len(data), walHeaderSize), nil, nil
	}
	if !bytes.Equal(data[:len(walMagic)], walMagic) {
		return 0, nil, 0, "", nil, fmt.Errorf("bad magic %q (not a journal WAL)", data[:len(walMagic)])
	}
	firstSeq = binary.LittleEndian.Uint64(data[len(walMagic):walHeaderSize])
	off := int64(walHeaderSize)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < 8 {
			return firstSeq, payloads, off,
				fmt.Sprintf("torn record frame at byte offset %d (%d trailing bytes)", off, len(rest)), nil, nil
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if int64(n) > int64(len(rest))-8 {
			return firstSeq, payloads, off,
				fmt.Sprintf("torn record at byte offset %d (payload length %d, only %d bytes remain)", off, n, len(rest)-8), rest[8:], nil
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return firstSeq, payloads, off,
				fmt.Sprintf("CRC mismatch at byte offset %d (record seq %d)", off, firstSeq+uint64(len(payloads))), payload, nil
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		off += 8 + int64(n)
	}
	return firstSeq, payloads, off, "", nil, nil
}

// payloadKind best-effort decodes the event kind from a frame payload
// that may be partial or corrupt. Event payloads are JSON objects whose
// kind is the leading "k" field (market and federation events alike),
// so even a torn prefix usually identifies what was lost.
func payloadKind(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	var probe struct {
		K string `json:"k"`
	}
	if err := json.Unmarshal(p, &probe); err == nil && probe.K != "" {
		return probe.K
	}
	const key = `"k":"`
	if i := bytes.Index(p, []byte(key)); i >= 0 {
		rest := p[i+len(key):]
		if end := bytes.IndexByte(rest, '"'); end > 0 {
			return string(rest[:end])
		}
	}
	return ""
}

// writeFreshWAL creates an empty WAL whose first record will carry
// firstSeq, via tmp+rename+dir-fsync so a crash leaves either the old
// or the new file.
func (j *Journal) writeFreshWAL(firstSeq uint64) error {
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], firstSeq)
	tmp := j.walPath() + ".tmp"
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: create wal: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("journal: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close wal: %w", err)
	}
	if err := j.fs.Rename(tmp, j.walPath()); err != nil {
		return fmt.Errorf("journal: install wal: %w", err)
	}
	return j.syncDir()
}

func (j *Journal) syncDir() error {
	if err := j.fs.SyncDir(j.dir); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// The bounded heal loop behind Append and Snapshot: a
// failed attempt is retried healRetries times, each after a doubling
// backoff from healBase and a probe, so a transient burst of
// ENOSPC/EIO costs the caller at most ~15 ms instead of an error.
const (
	healRetries = 4
	healBase    = time.Millisecond
)

// heal runs op, which takes j.mu itself, and retries it after a
// failure. Nothing holds j.mu across the sleeps. The probe's own error
// is not decisive: the retried op is the verdict. A closed journal
// fails at once. A failing journal makes one attempt and no retry: the
// loop already outlasted this disk's fault, and its sleeps would run
// under the caller's locks. The verdict sets or clears failing.
func (j *Journal) heal(op func() error) error {
	failing := j.failing.Load()
	retries := healRetries
	if failing {
		retries = 0
	}
	err := op()
	for attempt, backoff := 0, healBase; err != nil && !errors.Is(err, ErrClosed) && attempt < retries; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		_ = j.probe()
		err = op()
	}
	switch {
	case err == nil:
		if failing {
			j.failing.Store(false)
		}
	case !errors.Is(err, ErrClosed):
		j.failing.Store(true)
		j.failures.Add(1)
	}
	return err
}

// Append writes one framed record to the WAL and returns its sequence
// number. The record is written and fsynced before Append returns, so
// neither a process crash nor power loss can lose it. A failed attempt
// rolls the WAL back to its pre-append length, so the failed record is
// never readable and the heal loop's retry writes the identical frame;
// an error means every attempt failed and no sequence was consumed.
func (j *Journal) Append(payload []byte) (seq uint64, err error) {
	buf := appendFrame(make([]byte, 0, 8+len(payload)), payload)
	err = j.heal(func() error {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.dead {
			return ErrClosed
		}
		if err := j.repairIfTornLocked(); err != nil {
			return err
		}
		if err := j.writeFrameLocked(buf); err != nil {
			return err
		}
		seq = j.seq
		return nil
	})
	return seq, err
}

// writeFrameLocked writes one framed record and fsyncs it, then
// advances the sequence. Any failure — write error,
// short write, or a failed fsync — rolls the WAL back to its pre-write
// length, so an unacknowledged record never becomes
// readable and a retry reproduces the identical byte stream.
func (j *Journal) writeFrameLocked(buf []byte) error {
	start := j.good
	wrote, werr := j.wal.Write(buf)
	if werr != nil || wrote != len(buf) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		j.retractLocked(start)
		return fmt.Errorf("journal: append: %w", werr)
	}
	if err := j.syncWALLocked(); err != nil {
		// The frames hit the fd but their durability is unknown; retract
		// them so the acknowledged prefix and the file agree and the
		// caller's retry cannot duplicate them.
		j.retractLocked(start)
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.good += int64(len(buf))
	j.seq++
	j.appends.Add(1)
	j.bytes.Add(uint64(len(buf)))
	return nil
}

// retractLocked cuts the WAL back to good bytes after a failed write so
// no partial or unacknowledged frame is ever readable. If the truncate
// itself fails (the disk is truly sick) the journal is marked torn and
// the cut is retried before the next append, or by Probe.
func (j *Journal) retractLocked(good int64) {
	j.good = good
	if err := j.fs.Truncate(j.walPath(), good); err != nil {
		j.torn = true
		return
	}
	j.torn = false
}

func (j *Journal) repairIfTornLocked() error {
	if !j.torn {
		return nil
	}
	if err := j.fs.Truncate(j.walPath(), j.good); err != nil {
		return fmt.Errorf("journal: repair torn tail: %w", err)
	}
	j.torn = false
	return nil
}

// probe checks whether the journal can currently persist: it repairs
// any torn tail left behind by a failed append, then forces an fsync
// round trip of the WAL. The heal loop runs it before each retry.
func (j *Journal) probe() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrClosed
	}
	if err := j.repairIfTornLocked(); err != nil {
		return err
	}
	if err := j.syncWALLocked(); err != nil {
		return fmt.Errorf("journal: probe fsync: %w", err)
	}
	return nil
}

func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Snapshot durably stores state as covering every record up to and
// including sequence at, then rotates the WAL so replay restarts from the
// snapshot. The caller reads at (Seq) under whatever excludes appends
// while it builds state, and may release that before calling: records
// appended since carry sequence numbers past at, are not in state, and
// are carried into the replacement WAL — they were acknowledged, so
// rotation must not drop them.
//
// The rotation is failure-safe: the current WAL file and descriptor
// are not touched until the replacement is durably written and renamed
// into place, so an attempt that fails at any step leaves the journal
// appendable with every record past at still in its WAL, and the heal
// loop retries with the same state and stamp. An error means every
// attempt failed.
func (j *Journal) Snapshot(state []byte, at uint64) error {
	return j.heal(func() error { return j.snapshotOnce(state, at) })
}

func (j *Journal) snapshotOnce(state []byte, at uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrClosed
	}
	if at > j.seq || at+1 < j.first {
		return fmt.Errorf("journal: snapshot at seq %d, but the wal holds %d..%d", at, j.first, j.seq)
	}
	// The tail past the stamp is read before anything is written: a
	// failure here leaves no trace.
	tail, err := j.tailAfterLocked(at)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(snapshotFile{Seq: at, State: state})
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	tmp := j.snapPath() + ".tmp"
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: create snapshot: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close snapshot: %w", err)
	}
	if err := j.fs.Rename(tmp, j.snapPath()); err != nil {
		return fmt.Errorf("journal: install snapshot: %w", err)
	}
	if err := j.syncDir(); err != nil {
		return err
	}
	// The snapshot is durable; rotate the WAL so the replay tail is
	// bounded. Build the replacement completely — header and the records
	// past the stamp written, synced, and reopened for append — before
	// renaming it over the old WAL, and only then swap descriptors: a
	// failure anywhere leaves the old WAL (whose records up to the stamp
	// the snapshot now covers) still attached and valid.
	head := make([]byte, walHeaderSize, walHeaderSize+len(tail))
	copy(head, walMagic)
	binary.LittleEndian.PutUint64(head[len(walMagic):], at+1)
	head = append(head, tail...)
	walTmp := j.walPath() + ".tmp"
	tf, err := j.fs.Create(walTmp)
	if err != nil {
		return fmt.Errorf("journal: create wal: %w", err)
	}
	if _, err := tf.Write(head); err != nil {
		tf.Close()
		return fmt.Errorf("journal: write wal header: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("journal: sync wal: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("journal: close wal: %w", err)
	}
	// Open the replacement while it is still at its tmp name: the
	// descriptor follows the inode through the rename, and if this open
	// fails the old WAL has not been displaced.
	nf, err := j.fs.OpenFile(walTmp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen wal: %w", err)
	}
	if err := j.fs.Rename(walTmp, j.walPath()); err != nil {
		nf.Close()
		return fmt.Errorf("journal: install wal: %w", err)
	}
	old := j.wal
	j.wal = nf
	j.good = int64(len(head))
	j.first = at + 1
	j.torn = false
	old.Close()
	j.snapshots.Add(1)
	return j.syncDir()
}

// tailAfterLocked returns the framed bytes of the attached WAL's records
// past sequence at — empty when at is the current sequence, the common
// case, which reads nothing.
func (j *Journal) tailAfterLocked(at uint64) ([]byte, error) {
	if at == j.seq {
		return nil, nil
	}
	if err := j.repairIfTornLocked(); err != nil {
		return nil, err
	}
	data, err := j.fs.ReadFile(j.walPath())
	if err != nil {
		return nil, fmt.Errorf("journal: read wal tail: %w", err)
	}
	if int64(len(data)) < j.good {
		return nil, fmt.Errorf("journal: wal holds %d bytes, %d were acknowledged", len(data), j.good)
	}
	off := int64(walHeaderSize)
	for k := j.first; k <= at; k++ {
		if off+8 > j.good {
			return nil, fmt.Errorf("journal: wal ends before record seq %d", k)
		}
		off += 8 + int64(binary.LittleEndian.Uint32(data[off:]))
	}
	if off > j.good {
		return nil, fmt.Errorf("journal: record seq %d runs past the acknowledged wal", at)
	}
	return data[off:j.good], nil
}

// Close closes the journal, releasing the directory lock. Every
// append was fsynced when it returned, so there is nothing to flush.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return nil
	}
	j.dead = true
	return errors.Join(j.wal.Close(), j.lock.Close())
}

// Crash is Close with its error dropped — the moral equivalent of
// SIGKILL, for crash-recovery tests and scenarios: every append was
// fsynced when it returned, so a kill only releases the flock.
func (j *Journal) Crash() { _ = j.Close() }

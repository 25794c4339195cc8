package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// modelFS is the modelled storage device under the journal: a journal.FS
// over the real filesystem in which every flush (File.Sync, SyncDir)
// takes a fixed time and nothing else does. Real fsync on this sandbox's
// disk repeated only to ±12%; the modelled flush repeats to ±1.5% and
// still charges one wait per flush, so fewer flushes show as speed, and a
// cheaper codec shows as CPU time and bytes.
//
// It also keeps what a power loss would keep: per file the bytes written
// and the length at the last flush, and the renames not yet followed by a
// directory flush. Killing a process leaves the OS cache intact, so the
// power-loss check discards the unflushed bytes itself (powerLoss).
//
// The journal serialises its file calls, but recovery and the workload
// driver read the counters from other goroutines, so they are guarded.
type modelFS struct {
	inner journal.FS
	flush time.Duration

	mu      sync.Mutex
	files   map[string]*fileState // by path
	pending []rename              // renames since the last SyncDir
	backups int

	leaves *spanBuf // traced pass: one span per write and flush

	writeCalls, writeBytes, snapshotBytes atomic.Int64
	syncCalls, walSyncs                   atomic.Int64
	writeBusy, syncBusy, spun             atomic.Int64 // nanoseconds
}

type fileState struct{ written, synced int64 }

// rename is one unflushed rename. displaced is a hard link that keeps the
// file the rename replaced, so that undoing it can put that file back.
type rename struct{ from, to, displaced string }

func newModelFS(flush time.Duration) *modelFS {
	return &modelFS{inner: journal.OSFS(), flush: flush, files: make(map[string]*fileState)}
}

// wait completes a flush that began at start: the device answers after
// exactly the modelled latency. The wait polls the clock rather than
// sleeping: a sleeping thread's wake-up on this shared box arrives
// anywhere from 0.1 to 0.8 ms late (ten runs spread 20% on throughput),
// and time.Sleep rounds up to the runtime poller's whole milliseconds (a
// 1.2 ms sleep took 2.27 ms). The polling is CPU the model burns, not the
// program: it is metered on the polling thread's own CPU clock (the spun
// counter) so that it can be taken out of the CPU metric.
// The goroutine is not locked to its thread (locking changed who gets the
// journal lock next); if the runtime moves it mid-poll, which a 1 ms poll
// rarely allows, the reading is clamped to the wall time polled.
func (m *modelFS) wait(start time.Time, wal bool) {
	polled, cpu := time.Now(), threadCPU()
	for time.Since(start) < m.flush {
	}
	m.spun.Add(int64(max(0, min(threadCPU()-cpu, time.Since(polled)))))
	m.syncCalls.Add(1)
	if wal {
		m.walSyncs.Add(1)
	}
	m.syncBusy.Add(int64(time.Since(start)))
	m.leaves.add("journal.fs.sync", start, openPhase, false)
}

func (m *modelFS) MkdirAll(path string, perm os.FileMode) error { return m.inner.MkdirAll(path, perm) }
func (m *modelFS) ReadFile(name string) ([]byte, error)         { return m.inner.ReadFile(name) }

// track returns name's state, starting a file first seen here at its
// current, durable, length.
func (m *modelFS) track(name string, truncate bool) *fileState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.files[name]
	if st == nil {
		st = &fileState{}
		if fi, err := os.Stat(name); err == nil && !truncate {
			st.written, st.synced = fi.Size(), fi.Size()
		}
		m.files[name] = st
	}
	if truncate {
		st.written, st.synced = 0, 0
	}
	return st
}

func (m *modelFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	st := m.track(name, flag&os.O_TRUNC != 0)
	f, err := m.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &modelFile{File: f, fs: m, st: st, base: filepath.Base(name)}, nil
}

func (m *modelFS) Create(name string) (journal.File, error) {
	return m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
}

func (m *modelFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := rename{from: oldpath, to: newpath}
	if _, err := os.Lstat(newpath); err == nil {
		m.backups++
		r.displaced = fmt.Sprintf("%s.displaced%d", newpath, m.backups)
		if err := os.Link(newpath, r.displaced); err != nil {
			return err
		}
	}
	if err := m.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if st, ok := m.files[oldpath]; ok {
		m.files[newpath] = st
		delete(m.files, oldpath)
	}
	m.pending = append(m.pending, r)
	return nil
}

func (m *modelFS) Truncate(name string, size int64) error {
	if err := m.inner.Truncate(name, size); err != nil {
		return err
	}
	st := m.track(name, false)
	m.mu.Lock()
	st.written = size
	st.synced = min(st.synced, size)
	m.mu.Unlock()
	return nil
}

// SyncDir makes the pending renames durable; the files they displaced are
// gone for good.
func (m *modelFS) SyncDir(dir string) error {
	start := time.Now()
	m.mu.Lock()
	for _, r := range m.pending {
		if r.displaced != "" {
			os.Remove(r.displaced)
		}
	}
	m.pending = nil
	m.mu.Unlock()
	m.wait(start, false)
	return nil
}

type modelFile struct {
	journal.File
	fs   *modelFS
	st   *fileState
	base string
}

func (f *modelFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.st.written += int64(n)
	f.fs.mu.Unlock()
	f.fs.writeCalls.Add(1)
	f.fs.writeBytes.Add(int64(n))
	if strings.HasPrefix(f.base, "snapshot") {
		f.fs.snapshotBytes.Add(int64(n))
	}
	f.fs.writeBusy.Add(int64(time.Since(start)))
	f.fs.leaves.add("journal.fs.write", start, openPhase, false)
	return n, err
}

// Sync is the modelled flush. It does not call the real fsync: the bytes
// are in the OS cache, which is all the benchmark's own power-loss check
// reads back, and the real device's latency is what the model replaces.
func (f *modelFile) Sync() error {
	start := time.Now()
	f.fs.mu.Lock()
	f.st.synced = f.st.written
	f.fs.mu.Unlock()
	f.fs.wait(start, strings.HasPrefix(f.base, "wal"))
	return nil
}

// powerLoss copies dir to dst as a power cut would leave it: every
// tracked file cut back to its flushed length, every unflushed rename
// undone.
func (m *modelFS) powerLoss(dir, dst string) error {
	if err := copyDir(dir, dst); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	in := func(path string) string { return filepath.Join(dst, filepath.Base(path)) }
	for path, st := range m.files {
		if filepath.Dir(path) != filepath.Clean(dir) {
			continue
		}
		if err := os.Truncate(in(path), st.synced); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for i := len(m.pending) - 1; i >= 0; i-- {
		r := m.pending[i]
		if err := os.Rename(in(r.to), in(r.from)); err != nil {
			return err
		}
		if r.displaced != "" {
			if err := os.Rename(in(r.displaced), in(r.to)); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Stated settings of durable-planet.
const (
	modelFlush      = time.Millisecond
	durableFsync    = 1 // marketd's default: every append is flushed
	durableSnapshot = 3 // auctions between snapshots
	durableEpochs   = 8
	recoveries      = 5
)

var tmpSeq atomic.Int64

// tmpDir returns a fresh scratch directory under out/tmp, inside the
// checkout the benchmark runs from.
func tmpDir(label string) (string, error) {
	dir := filepath.Join("out", "tmp", fmt.Sprintf("%s-%d-%d", label, os.Getpid(), tmpSeq.Add(1)))
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}

type durableWorld struct {
	dir string
	fs  *modelFS
	j   *journal.Journal
	ex  *market.Exchange
}

// acked is what the exchange has acknowledged about one order by the time
// the last tick returned.
type acked struct {
	id, auction int
	team        string
	status      market.OrderStatus
	payment     float64
}

func ackLog(ex *market.Exchange) (orders []acked, balances map[string]float64, ledger int) {
	for _, o := range ex.Orders() {
		orders = append(orders, acked{o.ID, o.Auction, o.Team, o.Status, o.Payment})
	}
	balances = make(map[string]float64)
	for _, team := range ex.Teams() {
		balances[team], _ = ex.Balance(team) // Teams lists only open accounts
	}
	return orders, balances, len(ex.Ledger())
}

// lostAcks counts the acknowledged facts the recovered exchange does not
// reproduce exactly.
func lostAcks(want []acked, wantBal map[string]float64, wantLedger int, got *market.Exchange) int {
	have, haveBal, haveLedger := ackLog(got)
	lost := 0
	byID := make(map[int]acked, len(have))
	for _, a := range have {
		byID[a.id] = a
	}
	for _, a := range want {
		if byID[a.id] != a {
			lost++
		}
	}
	for team, bal := range wantBal {
		if b, ok := haveBal[team]; !ok || b != bal {
			lost++
		}
	}
	if haveLedger != wantLedger {
		lost++
	}
	return lost
}

func durablePlanetRep(c runCfg, rec *recorder) (*repResult, error) {
	fire := telemetry.NewFirehose()
	cfg := func(j *journal.Journal) market.Config {
		return market.Config{InitialBudget: planetBudget, Telemetry: fire, Journal: j, SnapshotEvery: durableSnapshot}
	}
	w, cleanup, setup, err := setups(setupBuilds, func() (*durableWorld, func(), error) {
		dir, err := tmpDir("durable")
		if err != nil {
			return nil, nil, err
		}
		fs := newModelFS(modelFlush)
		j, jr, err := journal.Open(dir, journal.Options{FsyncEvery: durableFsync, FS: fs})
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() {
			j.Close()
			os.RemoveAll(dir)
		}
		if !jr.Empty() {
			cleanup()
			return nil, nil, fmt.Errorf("fresh journal directory %s is not empty", dir)
		}
		ex, err := planetExchange(cfg(j))
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		return &durableWorld{dir: dir, fs: fs, j: j, ex: ex}, cleanup, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Counters from here on belong to the timed window, not to set-up.
	w.fs.leaves = rec.buffer()
	base, jm0 := w.fs.counters(), w.j.Metrics()
	cl, err := planetLoop(c, w.ex, c.sized(durableEpochs))
	if err != nil {
		return nil, err
	}
	r, err := exchangeRep(c, rec, w.ex, fire, setup, cl)
	if err != nil {
		return nil, err
	}
	fsm := w.fs.counters().minus(base)
	jm := w.j.Metrics()
	orders := float64(r.attempted)
	// The flush model's clock polling is not the program's CPU.
	r.e2e["cpu_s_per_korder"] -= time.Duration(fsm.spun).Seconds() / orders * 1000

	if p99, ok := r.layer["market.submit.p99_us"]; ok {
		r.e2e["submit_p99_us"] = p99
		r.n["submit_p99_us"] = r.n["market.submit.p99_us"]
	}
	r.e2e["fsyncs_per_order"] = float64(fsm.walSyncs) / orders
	r.e2e["wal_bytes_per_order"] = float64(fsm.writeBytes) / orders
	r.shape["flushes_per_order"] = r.e2e["fsyncs_per_order"]
	r.shape["journal.snapshots"] = float64(jm.Snapshots - jm0.Snapshots)
	r.layer["journal.appends"] = float64(jm.Appends - jm0.Appends)
	r.layer["journal.bytes"] = float64(jm.Bytes - jm0.Bytes)
	r.layer["journal.fsyncs"] = float64(jm.Fsyncs - jm0.Fsyncs)
	r.layer["journal.snapshots"] = float64(jm.Snapshots - jm0.Snapshots)
	if jm.Fsyncs > jm0.Fsyncs {
		r.layer["journal.records_per_sync"] = float64(jm.Appends-jm0.Appends) / float64(jm.Fsyncs-jm0.Fsyncs)
	}
	r.layer["journal.fs.write_calls"] = float64(fsm.writeCalls)
	r.layer["journal.fs.write_bytes"] = float64(fsm.writeBytes)
	r.layer["journal.fs.write_busy_s"] = time.Duration(fsm.writeBusy).Seconds()
	r.layer["journal.fs.sync_calls"] = float64(fsm.syncCalls)
	r.layer["journal.fs.sync_busy_s"] = time.Duration(fsm.syncBusy).Seconds()
	r.layer["journal.fs.sync_share"] = time.Duration(fsm.syncBusy).Seconds() / r.wall
	r.layer["journal.fs.snapshot_bytes"] = float64(fsm.snapshotBytes)

	// Crash, cut the power, recover, and hold the result against what was
	// acknowledged.
	want, wantBal, wantLedger := ackLog(w.ex)
	w.j.Crash()
	lost, err := tmpDir("powerloss")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(lost)
	if err := w.fs.powerLoss(w.dir, lost); err != nil {
		return nil, fmt.Errorf("power loss: %w", err)
	}
	var total, open, replay []float64
	for i := 0; i < recoveries; i++ {
		rs, err := recoverOnce(lost, cfg, want, wantBal, wantLedger)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		total = append(total, rs.total.Seconds())
		open = append(open, rs.open.Seconds())
		replay = append(replay, rs.replay.Seconds())
		r.e2e["lost_acks"] += float64(rs.lost)
		r.layer["journal.recovered_records"] = float64(rs.records)
	}
	r.e2e["recover_s"] = median(total)
	r.n["recover_s"] = len(total)
	r.layer["journal.open.s"] = median(open)
	r.layer["market.recover.s"] = median(replay)
	if r.e2e["lost_acks"] > 0 {
		return r, fmt.Errorf("%v acknowledged facts lost across power-loss recovery", r.e2e["lost_acks"])
	}
	return r, nil
}

type fsCounters struct {
	writeCalls, writeBytes, snapshotBytes, syncCalls, walSyncs, writeBusy, syncBusy, spun int64
}

func (m *modelFS) counters() fsCounters {
	return fsCounters{m.writeCalls.Load(), m.writeBytes.Load(), m.snapshotBytes.Load(),
		m.syncCalls.Load(), m.walSyncs.Load(), m.writeBusy.Load(), m.syncBusy.Load(), m.spun.Load()}
}

func (a fsCounters) minus(b fsCounters) fsCounters {
	return fsCounters{a.writeCalls - b.writeCalls, a.writeBytes - b.writeBytes, a.snapshotBytes - b.snapshotBytes,
		a.syncCalls - b.syncCalls, a.walSyncs - b.walSyncs, a.writeBusy - b.writeBusy, a.syncBusy - b.syncBusy, a.spun - b.spun}
}

type recoveryStats struct {
	total, open, replay time.Duration
	records, lost       int
}

// recoverOnce recovers a private copy of the power-cut directory: the
// copy and the fleet rebuild are set-up, the timed part is journal.Open,
// market.Recover and the invariant kernel.
func recoverOnce(lost string, cfg func(*journal.Journal) market.Config, want []acked, wantBal map[string]float64, wantLedger int) (*recoveryStats, error) {
	dir, err := tmpDir("recover")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(lost, dir); err != nil {
		return nil, err
	}
	fleet, err := planetFleet(0, 1)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	j, jr, err := journal.Open(dir, journal.Options{FsyncEvery: durableFsync})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	t1 := time.Now()
	ex, err := market.Recover(fleet, cfg(j), jr)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if vs := invariant.CheckExchange(ex); len(vs) > 0 {
		return nil, fmt.Errorf("invariant kernel after recovery: %d violations, first: %s", len(vs), vs[0])
	}
	rs := &recoveryStats{total: time.Since(t0), open: t1.Sub(t0), replay: t2.Sub(t1), records: len(jr.Records)}
	rs.lost = lostAcks(want, wantBal, wantLedger, ex)
	return rs, nil
}

package market_test

// Degraded-quiesce contract at every journal write site: a persistent
// disk fault (ENOSPC, EIO, fsync EIO) at any mutation path must error
// the caller, quiesce the exchange behind ErrDegraded, heal on
// TryResume once the disk recovers, and leave a journal whose replay
// reproduces the live books bit for bit — the failed op absent, every
// successful op present.

import (
	"errors"
	"reflect"
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// faultedExchange builds a journaled exchange whose WAL sits on a fault
// FS, fsyncing every append so fsync windows fire on the faulted op.
func faultedExchange(t *testing.T, dir string, fire *telemetry.Firehose) (*market.Exchange, *fault.Injector, *journal.Journal) {
	t.Helper()
	inj := fault.New()
	j, rec, err := journal.Open(dir, journal.Options{FS: fault.NewFS(inj, nil), FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatal("fresh dir reported prior state")
	}
	cfg := marketCfg(j, -1)
	cfg.Telemetry = fire
	ex, err := market.NewExchange(recoverFleet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ex, inj, j
}

// degradeSites enumerates every journal write site. setup runs
// fault-free and returns the operation to fault; the same operation is
// retried after the heal and must then succeed.
var degradeSites = []struct {
	name  string
	setup func(t *testing.T, e *market.Exchange) func() error
}{
	{"open-account", func(t *testing.T, e *market.Exchange) func() error {
		return func() error { return e.OpenAccount("late") }
	}},
	{"submit", func(t *testing.T, e *market.Exchange) func() error {
		openTeams(t, e)
		return func() error {
			_, err := e.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500)
			return err
		}
	}},
	{"cancel", func(t *testing.T, e *market.Exchange) func() error {
		openTeams(t, e)
		id, err := e.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500)
		if err != nil {
			t.Fatal(err)
		}
		return func() error { return e.Cancel(id) }
	}},
	{"auction-settlement", func(t *testing.T, e *market.Exchange) func() error {
		submitPair(t, e)
		return func() error { _, _, err := e.RunAuction(); return err }
	}},
	{"place", func(t *testing.T, e *market.Exchange) func() error {
		id := wonOrder(t, e)
		return func() error { _, err := e.PlaceOrder(id); return err }
	}},
	{"evict", func(t *testing.T, e *market.Exchange) func() error {
		id := wonOrder(t, e)
		tasks, err := e.PlaceOrder(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(tasks) == 0 {
			t.Fatal("winner placed no tasks")
		}
		return func() error { return e.EvictTask(tasks[0].Cluster, tasks[0].TaskID) }
	}},
	{"disburse", func(t *testing.T, e *market.Exchange) func() error {
		openTeams(t, e)
		return func() error { return e.Disburse(5000) }
	}},
	{"credit", func(t *testing.T, e *market.Exchange) func() error {
		openTeams(t, e)
		return func() error { return e.Credit("ads", 250, "goodwill refund") }
	}},
}

func openTeams(t *testing.T, e *market.Exchange) {
	t.Helper()
	for _, team := range []string{"ads", "maps"} {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
}

func submitPair(t *testing.T, e *market.Exchange) {
	t.Helper()
	openTeams(t, e)
	if _, err := e.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 600); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitProduct("maps", "batch-compute", 1, []string{"alpha", "beta"}, 400); err != nil {
		t.Fatal(err)
	}
}

// wonOrder drives a fault-free auction and returns a Won order's ID.
func wonOrder(t *testing.T, e *market.Exchange) int {
	t.Helper()
	submitPair(t, e)
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatal(err)
	}
	for _, o := range e.Orders() {
		if o.Status == market.Won {
			return o.ID
		}
	}
	t.Fatal("auction produced no winner; test script needs one")
	return 0
}

// TestDegradedQuiesceAtEveryWriteSite is the satellite-3 table: each
// write site under each persistent disk fault kind must degrade, reject
// new orders with ErrDegraded, resume after the disk heals, and recover
// to a state identical to the live exchange.
func TestDegradedQuiesceAtEveryWriteSite(t *testing.T) {
	kinds := []struct {
		name   string
		window fault.Window
	}{
		{"write-enospc", fault.Window{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 100000}},
		{"write-eio", fault.Window{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000}},
		{"fsync-eio", fault.Window{Op: fault.OpDiskFsync, Kind: fault.EIO, Count: 100000}},
	}
	for _, site := range degradeSites {
		for _, k := range kinds {
			t.Run(site.name+"/"+k.name, func(t *testing.T) {
				dir := t.TempDir()
				ex, inj, j := faultedExchange(t, dir, nil)
				defer j.Close()
				op := site.setup(t, ex)

				inj.Arm([]fault.Window{k.window})
				if err := op(); err == nil {
					t.Fatal("op under persistent disk fault succeeded")
				}
				if !ex.Degraded() {
					t.Fatal("exchange did not quiesce")
				}
				ds := ex.DegradedStatus()
				if !ds.Degraded || ds.Cause == "" || ds.Entered != 1 {
					t.Fatalf("degraded status = %+v", ds)
				}
				if _, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500); !errors.Is(err, market.ErrDegraded) {
					t.Fatalf("degraded submit = %v, want ErrDegraded", err)
				}

				// Disk heals; a forced probe resumes and the op goes through.
				inj.Arm(nil)
				if err := ex.TryResume(true); err != nil {
					t.Fatalf("resume on healed disk: %v", err)
				}
				if ex.Degraded() {
					t.Fatal("still degraded after successful resume")
				}
				if err := op(); err != nil {
					t.Fatalf("healed op: %v", err)
				}
				ds = ex.DegradedStatus()
				if ds.Exited != 1 || ds.SecondsTotal <= 0 {
					t.Errorf("post-heal status = %+v", ds)
				}

				// The quiesce never acknowledged unpersisted state: replaying
				// the journal reproduces the live books bit for bit.
				j.Close()
				j2, rec2, err := journal.Open(dir, journal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer j2.Close()
				recovered, err := market.Recover(recoverFleet(t), marketCfg(j2, -1), rec2)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if vs := invariant.CheckExchange(recovered); len(vs) > 0 {
					t.Fatalf("recovered exchange violates invariants: %v", vs)
				}
				if want, got := marketImage(t, ex), marketImage(t, recovered); !reflect.DeepEqual(want, got) {
					for key := range want {
						if !reflect.DeepEqual(want[key], got[key]) {
							t.Errorf("%s diverged after recovery:\n live:      %+v\n recovered: %+v", key, want[key], got[key])
						}
					}
					t.FailNow()
				}
			})
		}
	}
}

// TestBoundedFaultBurstHealsInvisibly pins the inline-retry contract: a
// burst within the bounded retries succeeds the op with no quiesce, and
// the result is durable.
func TestBoundedFaultBurstHealsInvisibly(t *testing.T) {
	dir := t.TempDir()
	ex, inj, j := faultedExchange(t, dir, nil)
	defer j.Close()
	openTeams(t, ex)

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 3}})
	id, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500)
	if err != nil {
		t.Fatalf("submit under bounded burst: %v", err)
	}
	if ex.Degraded() {
		t.Fatal("bounded burst quiesced the exchange")
	}
	if ds := ex.DegradedStatus(); ds.Entered != 0 {
		t.Errorf("bounded burst recorded a quiesce episode: %+v", ds)
	}
	if got := inj.Injected(); got != 3 {
		t.Errorf("injected %d faults, want the full burst of 3", got)
	}

	j.Close()
	j2, rec2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recovered, err := market.Recover(recoverFleet(t), marketCfg(j2, -1), rec2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ro, err := recovered.Order(id)
	if err != nil || ro.Status != market.Open {
		t.Fatalf("burst-healed order not durable: %+v, %v", ro, err)
	}
	if vs := invariant.CheckExchange(recovered); len(vs) > 0 {
		t.Fatalf("invariants: %v", vs)
	}
}

// TestTryResumeBackoffGate pins the probe rate limit: after a failed
// probe, an unforced resume inside the backoff window must return
// ErrDegraded without touching the disk; force bypasses the gate.
func TestTryResumeBackoffGate(t *testing.T) {
	ex, inj, j := faultedExchange(t, t.TempDir(), nil)
	defer j.Close()
	openTeams(t, ex)

	inj.Arm([]fault.Window{{Op: fault.OpDiskFsync, Kind: fault.EIO, Count: 100000}})
	if _, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500); err == nil {
		t.Fatal("submit under persistent fsync fault succeeded")
	}
	if !ex.Degraded() {
		t.Fatal("exchange did not quiesce")
	}
	// First unforced probe runs immediately (enterDegraded arms an
	// immediate probe), fails against the sick disk, and starts the
	// backoff clock.
	if err := ex.TryResume(false); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first probe = %v, want injected fsync failure", err)
	}
	before := inj.Injected()
	if err := ex.TryResume(false); !errors.Is(err, market.ErrDegraded) {
		t.Fatalf("gated probe = %v, want ErrDegraded", err)
	}
	if got := inj.Injected(); got != before {
		t.Errorf("gated resume touched the disk: injections %d -> %d", before, got)
	}
	if err := ex.TryResume(true); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("forced probe on sick disk = %v, want injected failure", err)
	}
	if inj.Injected() == before {
		t.Error("forced resume did not probe the disk")
	}

	inj.Arm(nil)
	if err := ex.TryResume(true); err != nil {
		t.Fatalf("resume on healed disk: %v", err)
	}
	if ex.Degraded() {
		t.Fatal("still degraded after heal")
	}
}

// TestDegradeTelemetryEvents asserts the quiesce lifecycle is surfaced
// on the firehose as telemetry-only events.
func TestDegradeTelemetryEvents(t *testing.T) {
	fire := telemetry.NewFirehose()
	sub := fire.Subscribe(256)
	defer sub.Close()
	ex, inj, j := faultedExchange(t, t.TempDir(), fire)
	defer j.Close()
	openTeams(t, ex)

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 100000}})
	if _, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500); err == nil {
		t.Fatal("submit under persistent fault succeeded")
	}
	inj.Arm(nil)
	if err := ex.TryResume(true); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
drain:
	for {
		select {
		case ev := <-sub.C:
			if ev.Source == market.EventSource {
				kinds[ev.Kind]++
			}
		default:
			break drain
		}
	}
	if kinds[market.EvDegradedEntered] != 1 {
		t.Errorf("degraded-entered events = %d, want 1", kinds[market.EvDegradedEntered])
	}
	if kinds[market.EvDegradedExited] != 1 {
		t.Errorf("degraded-exited events = %d, want 1", kinds[market.EvDegradedExited])
	}
}

package market_test

// The disk-fault contract at every journal write site: a persistent disk
// fault (ENOSPC, EIO, fsync EIO) that outlasts the journal's heal loop
// errors the caller, leaves the journal failing (one attempt a call
// until a write succeeds) and a journal whose replay reproduces the live
// books bit for bit — the failed op absent, every successful op present
// — and once the disk heals, the same op succeeds with nothing called
// in between.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// faultedExchange builds a journaled exchange whose WAL sits on a fault
// FS; every append fsyncs, so an fsync fault fires on the faulted op.
func faultedExchange(t *testing.T, dir string) (*market.Exchange, *fault.Injector, *journal.Journal) {
	t.Helper()
	inj := fault.New()
	j, rec, err := journal.Open(dir, journal.Options{FS: fault.NewFS(inj, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatal("fresh dir reported prior state")
	}
	ex, err := market.NewExchange(recoverFleet(t), marketCfg(j, -1))
	if err != nil {
		t.Fatal(err)
	}
	return ex, inj, j
}

// writeSites enumerates every journal write site. setup runs
// fault-free and returns the operation to fault; the same operation is
// retried after the heal and must then succeed.
var writeSites = []struct {
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

// TestDiskFaultAtEveryWriteSite: each write site under each
// persistent disk fault kind fails, fails again on the sick disk with one
// attempt, succeeds once the disk heals, and leaves a journal that
// recovers to a state identical to the live exchange, both while the
// disk is sick and after it heals.
func TestDiskFaultAtEveryWriteSite(t *testing.T) {
	kinds := []struct {
		name   string
		window fault.Window
	}{
		{"write-enospc", fault.Window{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 100000}},
		{"write-eio", fault.Window{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000}},
		{"fsync-eio", fault.Window{Op: fault.OpDiskFsync, Kind: fault.EIO, Count: 100000}},
	}
	for _, site := range writeSites {
		for _, k := range kinds {
			t.Run(site.name+"/"+k.name, func(t *testing.T) {
				dir := t.TempDir()
				ex, inj, j := faultedExchange(t, dir)
				defer j.Close()
				op := site.setup(t, ex)

				inj.Arm([]fault.Window{k.window})
				if err := op(); err == nil {
					t.Fatal("op under persistent disk fault succeeded")
				}
				if !j.Failing() {
					t.Fatal("journal past its heal loop does not report failing")
				}
				before := inj.Injected()
				if err := op(); err == nil {
					t.Fatal("op on the still-sick disk succeeded")
				}
				if n := inj.Injected() - before; n != 1 {
					t.Fatalf("op on a failing journal met %d faults, want one attempt", n)
				}
				mustRecoverLive(t, ex, dir)

				// Disk heals; the op goes through with no other call between.
				inj.Arm(nil)
				if err := op(); err != nil {
					t.Fatalf("healed op: %v", err)
				}
				if j.Failing() {
					t.Fatal("journal still failing after the op succeeded")
				}
				j.Close()
				mustRecoverLive(t, ex, dir)
			})
		}
	}
}

// mustRecoverLive recovers the journal in dir into a fresh exchange and
// requires it to equal the live one: nothing unpersisted was
// acknowledged. It reads the directory's files without its lock, so the
// live journal may still be open.
func mustRecoverLive(t *testing.T, ex *market.Exchange, dir string) {
	t.Helper()
	copyDir := t.TempDir()
	for _, name := range []string{"wal", "snapshot.json"} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j2, rec2, err := journal.Open(copyDir, journal.Options{})
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
}

// TestSettlementCountsOnlyJournaledOutcomes: a settlement whose journal
// write fails past the heal loop releases its batch back to Open, so the
// outcome counters must not have counted it.
func TestSettlementCountsOnlyJournaledOutcomes(t *testing.T) {
	ex, inj, j := faultedExchange(t, t.TempDir())
	defer j.Close()
	submitPair(t, ex)

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000}})
	if _, _, err := ex.RunAuction(); err == nil {
		t.Fatal("settlement on a sick disk succeeded")
	}
	if m := ex.Metrics(); m.Won != 0 || m.Lost != 0 || m.Unsettled != 0 || m.Auctions != 0 {
		t.Fatalf("metrics after a failed settlement = won %d, lost %d, unsettled %d, auctions %d; want all 0",
			m.Won, m.Lost, m.Unsettled, m.Auctions)
	}
	if n := ex.OpenOrderCount(); n != 2 {
		t.Fatalf("%d orders open after the failed settlement, want both released", n)
	}

	inj.Arm(nil)
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	if m := ex.Metrics(); m.Won+m.Lost+m.Unsettled != 2 || m.Won == 0 {
		t.Fatalf("metrics after the healed settlement = won %d, lost %d, unsettled %d; want both counted once", m.Won, m.Lost, m.Unsettled)
	}
}

// TestBoundedFaultBurstHealsInvisibly pins the inline-retry contract: a
// burst within the bounded retries succeeds the op, leaves the journal
// healthy, and the result is durable.
func TestBoundedFaultBurstHealsInvisibly(t *testing.T) {
	dir := t.TempDir()
	ex, inj, j := faultedExchange(t, dir)
	defer j.Close()
	openTeams(t, ex)

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 3}})
	id, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"alpha"}, 500)
	if err != nil {
		t.Fatalf("submit under bounded burst: %v", err)
	}
	if m := j.Metrics(); j.Failing() || m.Failing || m.Failures != 0 {
		t.Fatalf("bounded burst left the journal failing: %+v", m)
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

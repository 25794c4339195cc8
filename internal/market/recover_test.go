package market_test

// Crash-recovery round trip at the market layer: a journaled exchange
// driven through the full mutation surface (accounts, submits, cancels,
// auctions — converged and failed —, disbursements, credits, placements,
// evictions) is killed without warning and recovered; its observable
// state must match an identical in-memory exchange bit for bit, and a
// continued run must stay in lockstep.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// recoverFleet builds a small two-cluster fleet with a fixed background
// load — fully deterministic, so the recovery path can rebuild it.
func recoverFleet(t testing.TB) *cluster.Fleet {
	t.Helper()
	f := cluster.NewFleet()
	for _, name := range []string{"alpha", "beta"} {
		c := cluster.New(name, nil)
		c.UnitCost = cluster.Usage{CPU: 1, RAM: 0.25, Disk: 2}
		c.AddMachines(4, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ScheduleTask("background", "alpha", cluster.Usage{CPU: 20, RAM: 60, Disk: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ScheduleTask("background", "beta", cluster.Usage{CPU: 8, RAM: 30, Disk: 4}); err != nil {
		t.Fatal(err)
	}
	return f
}

// driveMarket exercises every mutation path. Both the reference and the
// journaled exchange run exactly this script.
func driveMarket(t testing.TB, e *market.Exchange) {
	t.Helper()
	for _, team := range []string{"ads", "maps", "search"} {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(team string, qty float64, clusters []string, limit float64) int {
		id, err := e.SubmitProduct(team, "batch-compute", qty, clusters, limit)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit("ads", 2, []string{"alpha"}, 600)
	submit("maps", 1, []string{"alpha", "beta"}, 400)
	victim := submit("search", 1, []string{"beta"}, 300)
	if err := e.Cancel(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatalf("auction 1: %v", err)
	}
	// Place every winner and evict the first placed task.
	var placed []market.PlacedTask
	for _, o := range e.Orders() {
		if o.Status != market.Won {
			continue
		}
		tasks, err := e.PlaceOrder(o.ID)
		if err != nil {
			t.Fatal(err)
		}
		placed = append(placed, tasks...)
	}
	if len(placed) == 0 {
		t.Fatal("no tasks placed; test script needs a winner")
	}
	if err := e.EvictTask(placed[0].Cluster, placed[0].TaskID); err != nil {
		t.Fatal(err)
	}
	if err := e.Disburse(5000); err != nil {
		t.Fatal(err)
	}
	if err := e.Disburse(250); err != nil {
		t.Fatal(err)
	}
	submit("search", 1, []string{"beta"}, 350)
}

// driveMarketMore continues the script past the crash point.
func driveMarketMore(t *testing.T, e *market.Exchange) {
	t.Helper()
	if _, err := e.SubmitProduct("ads", "batch-compute", 1, []string{"beta"}, 500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatalf("auction 2: %v", err)
	}
	if err := e.Disburse(1000); err != nil {
		t.Fatal(err)
	}
}

// marketImage gathers every observable surface for comparison.
func marketImage(t *testing.T, e *market.Exchange) map[string]any {
	t.Helper()
	balances := map[string]float64{}
	for _, team := range append(e.Teams(), market.OperatorAccount) {
		b, err := e.Balance(team)
		if err != nil {
			t.Fatal(err)
		}
		balances[team] = b
	}
	reg := e.Registry()
	return map[string]any{
		"orders":      e.Orders(),
		"ledger":      e.Ledger(),
		"history":     e.History(),
		"balances":    balances,
		"commitments": e.BuyCommitments(),
		"placed":      e.PlacedTasks(),
		"openCount":   e.OpenOrderCount(),
		"util":        e.Fleet().UtilizationVector(reg),
		"free":        e.Fleet().FreeVector(reg),
		"quotaTeams":  e.Fleet().Quotas().Grants(),
		"taskSeq":     e.Fleet().TaskSeq(),
	}
}

// checkRowsOnly asserts the single bid form on every order of the book,
// open and terminal: no R-length vector, the bundles still readable from
// the rows. (That a replayed or restored order's rows equal the live
// one's is part of marketImage's DeepEqual over Orders, which compares
// unexported fields too.)
func checkRowsOnly(t *testing.T, who string, e *market.Exchange) {
	t.Helper()
	open, terminal := 0, 0
	for _, o := range e.Orders() {
		if o.Status == market.Open {
			open++
		} else {
			terminal++
		}
		if o.Bid.Bundles != nil || o.Bid.NumBundles() == 0 || len(o.Bid.Bundle(0)) != e.Registry().Len() {
			t.Errorf("%s: order %d (%s) holds vectors %v, %d bundles", who, o.ID, o.Status, o.Bid.Bundles, o.Bid.NumBundles())
		}
	}
	if open == 0 || terminal == 0 {
		t.Errorf("%s: %d open and %d terminal orders; need both to check", who, open, terminal)
	}
}

func marketCfg(j *journal.Journal, snapEvery int) market.Config {
	return market.Config{InitialBudget: 10000, MaxRounds: 4000, Journal: j, SnapshotEvery: snapEvery}
}

func testCrashRecoverMarket(t *testing.T, snapEvery int, snapshotMidway bool) {
	// Reference: pure in-memory run.
	ref, err := market.NewExchange(recoverFleet(t), marketCfg(nil, snapEvery))
	if err != nil {
		t.Fatal(err)
	}
	driveMarket(t, ref)

	// Journaled run, killed without warning.
	dir := filepath.Join(t.TempDir(), "wal")
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh dir reported prior state: %+v", rec)
	}
	durable, err := market.NewExchange(recoverFleet(t), marketCfg(j, snapEvery))
	if err != nil {
		t.Fatal(err)
	}
	driveMarket(t, durable)
	if snapshotMidway {
		if err := durable.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()

	// Resurrect.
	j2, rec2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.Empty() {
		t.Fatal("journal lost the run")
	}
	if snapshotMidway && rec2.SnapshotSeq == 0 {
		t.Fatal("snapshot was not durable")
	}
	cfg := marketCfg(j2, snapEvery)
	recovered, err := market.Recover(recoverFleet(t), cfg, rec2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if vs := invariant.CheckExchange(recovered); len(vs) > 0 {
		t.Fatalf("recovered exchange violates invariants: %v", vs)
	}

	if want, got := marketImage(t, ref), marketImage(t, recovered); !reflect.DeepEqual(want, got) {
		for k := range want {
			if !reflect.DeepEqual(want[k], got[k]) {
				t.Errorf("%s diverged after recovery:\n in-memory: %+v\n recovered: %+v", k, want[k], got[k])
			}
		}
		t.FailNow()
	}
	checkRowsOnly(t, "in-memory", ref)
	checkRowsOnly(t, "recovered", recovered)

	// The recovered exchange must continue in lockstep.
	driveMarketMore(t, ref)
	driveMarketMore(t, recovered)
	if want, got := marketImage(t, ref), marketImage(t, recovered); !reflect.DeepEqual(want, got) {
		t.Fatal("continued runs diverged after recovery")
	}
	if vs := invariant.CheckExchange(recovered); len(vs) > 0 {
		t.Fatalf("continued recovered exchange violates invariants: %v", vs)
	}
}

func TestCrashRecoverReplaysFullWAL(t *testing.T)  { testCrashRecoverMarket(t, -1, false) }
func TestCrashRecoverFromSnapshot(t *testing.T)    { testCrashRecoverMarket(t, -1, true) }
func TestCrashRecoverSnapshotCadence(t *testing.T) { testCrashRecoverMarket(t, 1, false) }

// TestJournalNilIsInert pins the zero-cost contract: an exchange without
// a journal behaves exactly as before and Snapshot is a no-op.
func TestJournalNilIsInert(t *testing.T) {
	e, err := market.NewExchange(recoverFleet(t), marketCfg(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(); err != nil {
		t.Fatalf("nil-journal Snapshot: %v", err)
	}
	driveMarket(t, e)
	if vs := invariant.CheckExchange(e); len(vs) > 0 {
		t.Fatalf("invariants: %v", vs)
	}
}

// recoveryOf journals driveMarket's script, kills the process and returns
// what the directory recovers to: the whole WAL, or a snapshot of the
// final state when snapshot is set.
func recoveryOf(t testing.TB, snapshot bool) *journal.Recovery {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := market.NewExchange(recoverFleet(t), marketCfg(j, -1))
	if err != nil {
		t.Fatal(err)
	}
	driveMarket(t, e)
	if snapshot {
		if err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	j.Crash()
	j2, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// jsonObject decodes raw with its numbers kept as written, so an edited
// object re-encodes every untouched value bit for bit.
func jsonObject(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil {
		t.Fatal(err)
	}
	return obj
}

func jsonBytes(t *testing.T, obj map[string]any) []byte {
	t.Helper()
	raw, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// corruptWins are the ways a Won record's bundle index — the whole of a
// winner's allocation, and bytes from disk once journaled — can be wrong.
// Every one must be answered with ErrCorruptSettlement: never a panic
// indexing the bid's rows, never a winner recovered without its grant.
var corruptWins = []struct {
	name   string
	doctor func(won map[string]any)
}{
	{"past the bid's bundles", func(won map[string]any) { won["bundle"] = 7 }},
	{"negative", func(won map[string]any) { won["bundle"] = -1 }},
	{"absent", func(won map[string]any) { delete(won, "bundle") }},
	{"the allocation vector older journals carried", func(won map[string]any) {
		delete(won, "bundle")
		won["alloc"] = []float64{0, 0, 0, 2, 8, 1}
	}},
}

// TestRecoverRejectsCorruptWonEvent doctors the journaled order-settled
// event of a winner and replays the WAL.
func TestRecoverRejectsCorruptWonEvent(t *testing.T) {
	rec := recoveryOf(t, false)
	won, first := -1, true
	for i, raw := range rec.Records {
		ev := jsonObject(t, raw)
		if ev["k"] != market.EvOrderSettled || ev["status"] != json.Number(strconv.Itoa(int(market.Won))) {
			continue
		}
		won = i
		// omitempty must not eat a winner of bundle 0: "ads" bid one bundle.
		if _, ok := ev["bundle"]; !ok {
			t.Fatalf("journaled Won event carries no bundle index: %s", raw)
		}
		if first && ev["bundle"] != json.Number("0") {
			t.Errorf("the single-bundle order won bundle %v, want 0: %s", ev["bundle"], raw)
		}
		first = false
		if strings.Contains(string(raw), "alloc") {
			t.Errorf("journaled Won event still carries a vector: %s", raw)
		}
	}
	if won < 0 {
		t.Fatal("no Won event in the WAL; the script needs a winner")
	}
	if _, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), rec); err != nil {
		t.Fatalf("the undoctored WAL does not replay: %v", err)
	}
	for _, tc := range corruptWins {
		t.Run(tc.name, func(t *testing.T) {
			ev := jsonObject(t, rec.Records[won])
			tc.doctor(ev)
			doctored := *rec
			doctored.Records = append([][]byte(nil), rec.Records...)
			doctored.Records[won] = jsonBytes(t, ev)
			_, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), &doctored)
			if !errors.Is(err, market.ErrCorruptSettlement) {
				t.Fatalf("Recover = %v, want ErrCorruptSettlement", err)
			}
		})
	}
}

// TestRecoverRejectsSkippedOrderID replays a submit whose order id skips
// ahead in a stripe that is not full: the book files order k at slot
// k/stripes of stripe k%stripes, so the record is refused as out of
// sequence rather than misfiled.
func TestRecoverRejectsSkippedOrderID(t *testing.T) {
	rec := recoveryOf(t, false)
	e, err := market.NewExchange(recoverFleet(t), marketCfg(nil, -1))
	if err != nil {
		t.Fatal(err)
	}
	stripes := len(e.OpenOrdersPerStripe())
	for i, raw := range rec.Records {
		ev := jsonObject(t, raw)
		if ev["k"] != market.EvOrderSubmitted {
			continue
		}
		id := 0 // omitempty drops order 0
		if n, ok := ev["order"].(json.Number); ok {
			v, err := n.Int64()
			if err != nil {
				t.Fatal(err)
			}
			id = int(v)
		}
		skipped := id + stripes
		ev["order"] = skipped
		doctored := *rec
		doctored.Records = append([][]byte(nil), rec.Records...)
		doctored.Records[i] = jsonBytes(t, ev)
		_, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), &doctored)
		want := fmt.Sprintf("order %d out of sequence", skipped)
		if !errors.Is(err, market.ErrCorruptRecord) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Recover = %v, want ErrCorruptRecord naming %q", err, want)
		}
		return
	}
	t.Fatal("no order-submitted event in the WAL")
}

// TestRecoverRejectsCorruptWonSnapshot does the same to a Won order of a
// snapshot image.
func TestRecoverRejectsCorruptWonSnapshot(t *testing.T) {
	rec := recoveryOf(t, true)
	if rec.SnapshotSeq == 0 {
		t.Fatal("snapshot was not durable")
	}
	if _, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), rec); err != nil {
		t.Fatalf("the undoctored snapshot does not restore: %v", err)
	}
	for _, tc := range corruptWins {
		t.Run(tc.name, func(t *testing.T) {
			st := jsonObject(t, rec.Snapshot)
			doctored := false
			for _, o := range st["orders"].([]any) {
				order := o.(map[string]any)
				if order["status"] != json.Number(strconv.Itoa(int(market.Won))) {
					if _, ok := order["bundle"]; ok {
						t.Errorf("order %v is not Won but carries a bundle index", order["id"])
					}
					continue
				}
				if _, ok := order["bundle"]; !ok {
					t.Fatalf("Won order %v carries no bundle index in the snapshot", order["id"])
				}
				if !doctored {
					tc.doctor(order)
					doctored = true
				}
			}
			if !doctored {
				t.Fatal("no Won order in the snapshot; the script needs a winner")
			}
			bad := *rec
			bad.Snapshot = jsonBytes(t, st)
			_, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), &bad)
			if !errors.Is(err, market.ErrCorruptSettlement) {
				t.Fatalf("Recover = %v, want ErrCorruptSettlement", err)
			}
		})
	}
}

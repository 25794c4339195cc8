// The router table's replay-seam tests live in the external test package:
// they run the shared invariant kernel (see conservation_test.go for the
// import-cycle rationale).
package federation_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/fault"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// seamTopology is the differential run's planet: a congested region, an
// idle one, and a tiny idle one — the cheapest, so the router's first
// choice — whose clock is cut off after a round: oversubscribed at its
// reserve prices, it leaves legs Open over several epochs and then
// retires them Unsettled.
var seamTopology = []struct {
	name      string
	machines  int
	util      float64
	maxRounds int
}{
	{"hot", 20, 0.85, 0},
	{"cold", 20, 0.1, 0},
	{"stuck", 1, 0, 1},
}

// seamFleet builds one region's fleet, the same on every (re)build.
func seamFleet(t *testing.T, name string, machines int, util float64) *cluster.Fleet {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	fleet := cluster.NewFleet()
	for _, cn := range []string{name + "-r1", name + "-r2"} {
		c := cluster.New(cn, nil)
		c.AddMachines(machines, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		if util > 0 {
			if err := fleet.FillToUtilization(rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fleet
}

// seamWorld is a fully journaled federation (router journal plus one per
// region) under dir. Budgets are tight, so that legs are rejected for
// budget; journals fsync never, because the test reads them back through
// the page cache, not after a power loss.
type seamWorld struct {
	fed      *federation.Federation
	journals []*journal.Journal
}

func (w *seamWorld) close() {
	for _, j := range w.journals {
		j.Close()
	}
}

var seamTeams = []string{"alpha", "beta"}

// openSeamWorld opens (or, from a copied directory, recovers) the world.
// It assembles the world itself rather than through Open: the stuck
// region has its own MaxRounds, and the router its own snapshot cadence.
func openSeamWorld(t *testing.T, dir string, snapshotEvery int) *seamWorld {
	t.Helper()
	w := &seamWorld{}
	opts := journal.Options{}
	var regions []*federation.Region
	fresh := true
	for _, tp := range seamTopology {
		j, rec, err := journal.Open(filepath.Join(dir, tp.name), opts)
		if err != nil {
			t.Fatal(err)
		}
		w.journals = append(w.journals, j)
		cfg := market.Config{InitialBudget: 150, Journal: j, SnapshotEvery: 4, MaxRounds: tp.maxRounds}
		fleet := seamFleet(t, tp.name, tp.machines, tp.util)
		var r *federation.Region
		if rec.Empty() {
			r, err = federation.NewRegion(tp.name, fleet, cfg)
		} else {
			fresh = false
			r, err = federation.TestingRecoverRegion(tp.name, fleet, cfg, rec)
		}
		if err != nil {
			t.Fatalf("region %s: %v", tp.name, err)
		}
		regions = append(regions, r)
	}
	fj, frec, err := journal.Open(filepath.Join(dir, "fed"), opts)
	if err != nil {
		t.Fatal(err)
	}
	w.journals = append(w.journals, fj)
	if w.fed, err = federation.NewFederation(regions...); err != nil {
		t.Fatal(err)
	}
	if fresh {
		for _, team := range seamTeams {
			if err := w.fed.OpenAccount(team); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := w.fed.Restore(frec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	w.fed.AttachJournal(fj, snapshotEvery)
	return w
}

// copyTree copies the journal directories, without their lock files.
func copyTree(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, dst := filepath.Join(from, e.Name()), filepath.Join(to, e.Name())
		switch {
		case e.IsDir():
			copyTree(t, src, dst)
		case e.Name() != "LOCK":
			raw, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestViewTableSeamDifferential drives a seeded random routing run over
// everything that writes the table — cross-region XORs, budget-rejected
// legs (Err), stale-quoted legs (Suspect), a settlement partition, cancels, a
// region that leaves legs Open, submits racing a settlement — and after
// every step holds the table to its contracts: re-storing every order's
// view changes nothing; the three read paths agree; the router's counters
// are exactly what the orders say happened, so no order was ever advanced
// twice, although every step leaves duplicate and stale ids on the open
// lists; and the federation recovered from the journals as they are at
// that moment is the live one, record for record. Once from the WAL alone,
// once through mid-run snapshots.
func TestViewTableSeamDifferential(t *testing.T) {
	for _, snapshotEvery := range []int{0, 2} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", snapshotEvery), func(t *testing.T) {
			dir := t.TempDir()
			live := openSeamWorld(t, filepath.Join(dir, "live"), snapshotEvery)
			defer live.close()
			f := live.fed
			inj := fault.New()
			f.AttachFaults(inj)

			rng := rand.New(rand.NewSource(20))
			var clusters []string
			for _, tp := range seamTopology {
				clusters = append(clusters, tp.name+"-r1", tp.name+"-r2")
			}
			submit := func(rng *rand.Rand) {
				perm := rng.Perm(len(clusters))[:1+rng.Intn(4)]
				var cs []string
				for _, k := range perm {
					cs = append(cs, clusters[k])
				}
				// All legs rejected (budget) is a normal outcome.
				qty := 1 + rng.Intn(4)
				_, _ = f.SubmitProduct(seamTeams[rng.Intn(2)], "batch-compute", float64(qty), cs, float64(qty*(2+rng.Intn(15))))
			}
			settle := func(region string) {
				_, err := f.SettleRegion(region)
				if err != nil && !errors.Is(err, market.ErrNoOpenOrders) && !errors.Is(err, core.ErrNoConvergence) && !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("settle %s: %v", region, err)
				}
			}

			const steps = 70
			for step := 0; step < steps; step++ {
				switch step {
				case 0:
					// Oversubscribe stuck, then settle it three times: its legs
					// stay Open twice and retire Unsettled, failing over to cold.
					for i := 0; i < 8; i++ {
						if _, err := f.SubmitProduct(seamTeams[i%2], "batch-compute", 4, []string{"stuck-r1", "cold-r1"}, 30); err != nil {
							t.Fatalf("oversubscribing stuck: %v", err)
						}
					}
				case 1, 2, 3:
					settle("stuck")
				case 12:
					// Lose hot's gossip for a while: its quote goes stale and
					// legs priced from it turn Suspect.
					inj.Arm([]fault.Window{{Op: fault.OpRegionGossip, Scope: "hot", Kind: fault.Unreachable, Count: 8}})
					for i := 0; i < 5; i++ {
						settle("cold")
					}
					if _, err := f.SubmitProduct("beta", "batch-compute", 1, []string{"hot-r1", "cold-r1"}, 40); err != nil {
						t.Fatalf("submit on a stale quote: %v", err)
					}
				case 40:
					// A bounded settlement partition of cold: its clock is
					// skipped three times, and routing goes on once it heals.
					inj.Arm([]fault.Window{{Op: fault.OpRegionSettle, Scope: "cold", Kind: fault.Unreachable, Count: 3}})
					for i := 0; i < 3; i++ {
						settle("cold")
					}
					inj.Arm(nil)
					if _, err := f.SubmitProduct("alpha", "batch-compute", 1, []string{"cold-r1", "hot-r1"}, 40); err != nil {
						t.Fatalf("submit after the partition healed: %v", err)
					}
				}
				switch p := rng.Intn(20); {
				case p < 11:
					submit(rng)
				case p < 16:
					settle(seamTopology[rng.Intn(len(seamTopology))].name)
				case p < 17:
					f.Tick()
				case p < 19:
					if open := openIDs(f.Orders()); len(open) > 0 {
						if err := f.Cancel(open[rng.Intn(len(open))]); err != nil {
							t.Fatalf("cancel: %v", err)
						}
					}
				default:
					// Submits racing a settlement wave (their own generator:
					// rng is not safe to share).
					var wg sync.WaitGroup
					racer := rand.New(rand.NewSource(int64(step)))
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 6; i++ {
							submit(racer)
						}
					}()
					f.Tick()
					wg.Wait()
				}
				checkSeam(t, fmt.Sprintf("step %d", step), f)

				rdir := filepath.Join(dir, fmt.Sprintf("rec%d", step))
				copyTree(t, filepath.Join(dir, "live"), rdir)
				rec := openSeamWorld(t, rdir, snapshotEvery)
				if got, want := rec.fed.Orders(), f.Orders(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: recovered orders diverge:\nlive      %s\nrecovered %s", step, dump(want), dump(got))
				}
				if got, want := rec.fed.Stats(), f.Stats(); got != want {
					t.Fatalf("step %d: recovered stats %+v, live %+v", step, got, want)
				}
				if got, want := federation.TestingTableImage(rec.fed), federation.TestingTableImage(f); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: recovered table diverges:\nlive      %+v\nrecovered %+v", step, want, got)
				}
				invariant.RequireFederation(t, fmt.Sprintf("step %d recovered", step), rec.fed)
				rec.close()
				os.RemoveAll(rdir)
			}

			// The run must have been through what it claims to cover.
			cover := map[string]int{}
			for _, fo := range f.Orders() {
				cover[fo.Status.String()]++
				if len(fo.Legs) > 1 {
					cover["cross-region"]++
				}
				for _, l := range fo.Legs {
					if l.Err != "" {
						cover["budget-err"]++
					}
					if l.Suspect {
						cover["suspect"]++
					}
					if l.Region == "stuck" && l.Status == market.Unsettled {
						cover["stuck-unsettled"]++
					}
				}
			}
			if f.Stats().Failovers > 0 {
				cover["failover"]++
			}
			for _, want := range []string{"won", "lost", "cancelled", "cross-region", "budget-err", "suspect", "stuck-unsettled", "failover"} {
				if cover[want] == 0 {
					t.Errorf("the run never produced %q: %v", want, cover)
				}
			}
		})
	}
}

// TestFederationSnapshotHoldsItsCut states why the router's snapshot never
// had the defect the exchange's did: Federation.Snapshot holds f.mu from
// building the image to the journal's return, and every routing append
// happens under f.mu, so no record can land between the image and its
// stamp. Routed submits race router snapshots (and, through Tick, the
// regions' own cadence snapshots, which release their locks before they
// write); everything acknowledged is there after recovery.
func TestFederationSnapshotHoldsItsCut(t *testing.T) {
	dir := t.TempDir()
	live := openSeamWorld(t, filepath.Join(dir, "live"), 0)
	defer live.close()
	f := live.fed
	var wg sync.WaitGroup
	var acked []int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			id, err := f.SubmitProduct(seamTeams[i%2], "batch-compute", 1, []string{"cold-r1", "hot-r2"}, float64(2+i%9))
			if err == nil {
				acked = append(acked, id)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if err := f.Snapshot(); err != nil {
			t.Error(err)
		}
		f.Tick()
	}
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no routed submit was acknowledged")
	}
	rdir := filepath.Join(dir, "rec")
	copyTree(t, filepath.Join(dir, "live"), rdir)
	rec := openSeamWorld(t, rdir, 0)
	defer rec.close()
	for _, id := range acked {
		if _, err := rec.fed.Order(id); err != nil {
			t.Fatalf("acknowledged routed order %d is gone after recovery: %v", id, err)
		}
	}
	if got, want := rec.fed.Orders(), f.Orders(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered orders diverge:\nlive      %s\nrecovered %s", dump(want), dump(got))
	}
	invariant.RequireFederation(t, "recovered", rec.fed)
}

// TestServeKeepsSnapshotCadence runs a journaled federation the way
// marketd -regions N -journal-dir does, settled by Serve's ticks, with a
// router snapshot due every two settlements: the router
// journal must write one, and the federation restored from it and its
// tail must be the live one and pass the invariant kernel.
func TestServeKeepsSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	live := openSeamWorld(t, filepath.Join(dir, "live"), 2)
	defer live.close()
	f, fj := live.fed, live.journals[len(live.journals)-1]
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- f.Serve(ctx, time.Millisecond) }()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; fj.Metrics().Snapshots == 0 && time.Now().Before(deadline); i++ {
		// Budget refusals are expected once the tight budgets run out.
		_, _ = f.SubmitProduct(seamTeams[i%2], "batch-compute", 1, []string{"cold-r1", "hot-r2"}, float64(2+i%9))
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v", err)
	}
	if fj.Metrics().Snapshots == 0 {
		t.Fatal("Serve settled for 20 s without a router snapshot")
	}

	rdir := filepath.Join(dir, "rec")
	copyTree(t, filepath.Join(dir, "live"), rdir)
	j, frec, err := journal.Open(filepath.Join(rdir, "fed"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if frec.SnapshotSeq == 0 {
		t.Fatal("the router journal recovers without a snapshot")
	}
	rec := openSeamWorld(t, rdir, 0)
	defer rec.close()
	if got, want := rec.fed.Orders(), f.Orders(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored orders diverge:\nlive      %s\nrestored  %s", dump(want), dump(got))
	}
	invariant.RequireFederation(t, "restored", rec.fed)
}

// TestTickKeepsSnapshotCadence is the cadence under Tick: a region that
// settled counts, an idle one does not, so idle ticks write no router
// snapshot of an unchanged table.
func TestTickKeepsSnapshotCadence(t *testing.T) {
	w := openSeamWorld(t, t.TempDir(), 2)
	defer w.close()
	f, fj := w.fed, w.journals[len(w.journals)-1]
	for i := 0; i < 4; i++ {
		f.Tick()
	}
	if n := fj.Metrics().Snapshots; n != 0 {
		t.Fatalf("four idle ticks wrote %d router snapshots, want none", n)
	}
	for _, c := range []string{"hot-r1", "cold-r1"} {
		if _, err := f.SubmitProduct(seamTeams[0], "batch-compute", 1, []string{c}, 5); err != nil {
			t.Fatal(err)
		}
	}
	f.Tick()
	if n := fj.Metrics().Snapshots; n != 1 {
		t.Fatalf("a tick that settled two regions (every 2) wrote %d router snapshots, want 1", n)
	}
}

// TestSettleRegionKeepsSnapshotCadence is the cadence under SettleRegion,
// as the scenario engine settles: every market every epoch, most of them
// idle. An idle settlement gossips and runs its wave but does not count,
// so idle rounds write no router snapshot of an unchanged table.
func TestSettleRegionKeepsSnapshotCadence(t *testing.T) {
	w := openSeamWorld(t, t.TempDir(), 2)
	defer w.close()
	f, fj := w.fed, w.journals[len(w.journals)-1]
	for i := 0; i < 6; i++ {
		if _, err := f.SettleRegion(seamTopology[i%len(seamTopology)].name); !errors.Is(err, market.ErrNoOpenOrders) {
			t.Fatalf("idle settlement returned %v, want ErrNoOpenOrders", err)
		}
	}
	if n := fj.Metrics().Snapshots; n != 0 {
		t.Fatalf("six idle settlements wrote %d router snapshots, want none", n)
	}
	if tick := f.GossipTick(); tick != 6 {
		t.Fatalf("gossip tick = %d after six settlements, want 6: an idle one still gossips", tick)
	}
	for _, c := range []string{"hot-r1", "cold-r1"} {
		if _, err := f.SubmitProduct(seamTeams[0], "batch-compute", 1, []string{c}, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []string{"hot", "cold"} {
		if _, err := f.SettleRegion(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := fj.Metrics().Snapshots; n != 1 {
		t.Fatalf("two settlements that ran (every 2) wrote %d router snapshots, want 1", n)
	}
}

func openIDs(orders []*federation.FedOrder) []int {
	var ids []int
	for _, fo := range orders {
		if fo.Status == market.Open {
			ids = append(ids, fo.ID)
		}
	}
	return ids
}

func dump(v any) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// checkSeam holds a live federation to the table's contracts.
func checkSeam(t *testing.T, label string, f *federation.Federation) {
	t.Helper()
	if err := federation.TestingRestoreViews(f); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	orders := f.Orders()
	if tail := f.OrdersTail(len(orders) + 3); !reflect.DeepEqual(tail, orders) {
		t.Fatalf("%s: OrdersTail(all) differs from Orders()", label)
	}
	if n := len(orders); n > 2 && !reflect.DeepEqual(f.OrdersTail(2), orders[n-2:]) {
		t.Fatalf("%s: OrdersTail(2) is not the last two of Orders()", label)
	}
	var won, lost, unsettled, booked int
	for id, fo := range orders {
		one, err := f.Order(id)
		if err != nil || !reflect.DeepEqual(one, fo) {
			t.Fatalf("%s: Order(%d) = %s, %v; Orders() has %s", label, id, dump(one), err, dump(fo))
		}
		switch fo.Status {
		case market.Won:
			won++
		case market.Lost:
			lost++
		case market.Unsettled:
			unsettled++
		}
		for _, l := range fo.Legs {
			if l.OrderID >= 0 {
				booked++
			}
		}
	}
	// Every terminal outcome and every failover is counted when an advance
	// visits the order: an order visited twice for one settlement would
	// show here as a counter ahead of the orders.
	st := f.Stats()
	if st.Submitted != len(orders) || st.Won != won || st.Lost != lost || st.Unsettled != unsettled || st.Failovers != booked-len(orders) {
		t.Fatalf("%s: stats %+v, but the orders say %d submitted, %d won, %d lost, %d unsettled, %d failover legs",
			label, st, len(orders), won, lost, unsettled, booked-len(orders))
	}
	invariant.RequireFederation(t, label, f)
}

// hostileFed is a small driven federation (driveFed: won, failed-over,
// cancelled and open orders over hot and cold) to replay records into.
func hostileFed(t testing.TB) *federation.Federation {
	t.Helper()
	var regions []*federation.Region
	for _, tp := range fedTopology {
		regions = append(regions, federation.TestingRegion(t, tp.name, tp.clusters, tp.util))
	}
	f, err := federation.NewFederation(regions...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	submit := func(qty, limit float64, clusters ...string) {
		if _, err := f.SubmitProduct("team", "batch-compute", qty, clusters, limit); err != nil {
			t.Fatal(err)
		}
	}
	submit(8, 4000, "hot-r1", "hot-r2", "cold-r1", "cold-r2")
	submit(4, 2500, "hot-r1")
	submit(2, 5, "hot-r2", "cold-r2") // loses everywhere
	f.Tick()
	f.Tick()
	submit(3, 2000, "cold-r1", "hot-r1") // stays open
	return f
}

func eventJSON(t testing.TB, kind string, fo *federation.FedOrder) []byte {
	t.Helper()
	raw, err := json.Marshal(&federation.FedEvent{Kind: kind, Order: fo, Stats: &federation.Stats{}})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// hostileRecords are routing records no router wrote. Each starts from a
// true one: a submitted record is the open order's view under the next
// id, an updated one the view of the order it names.
var hostileRecords = []struct {
	name    string
	updated bool // an update of the template order, else a submit of it under the next id
	won     bool // the template is the won order, else the open one
	mutate  func(fo *federation.FedOrder)
}{
	{name: "active past the legs", mutate: func(fo *federation.FedOrder) { fo.Active = len(fo.Legs) }},
	{name: "open without an active leg", mutate: func(fo *federation.FedOrder) { fo.Active = -1 }},
	{name: "terminal with an active leg", mutate: func(fo *federation.FedOrder) { fo.Status = market.Lost }},
	{name: "null leg", mutate: func(fo *federation.FedOrder) { fo.Legs[1] = nil }},
	{name: "no legs", mutate: func(fo *federation.FedOrder) { fo.Legs = nil }},
	{name: "unknown region", mutate: func(fo *federation.FedOrder) { fo.Legs[1].Region = "mars" }},
	{name: "one region twice", mutate: func(fo *federation.FedOrder) { fo.Legs[1].Region = fo.Legs[0].Region }},
	{name: "cluster of another region", mutate: func(fo *federation.FedOrder) { fo.Legs[0].Clusters[0] = fo.Legs[1].Clusters[0] }},
	{name: "unknown cluster", mutate: func(fo *federation.FedOrder) { fo.Legs[0].Clusters[0] = "nowhere-r1" }},
	{name: "leg without clusters", mutate: func(fo *federation.FedOrder) { fo.Legs[1].Clusters = nil }},
	{name: "id ahead of sequence", mutate: func(fo *federation.FedOrder) { fo.ID++ }},
	{name: "negative id", mutate: func(fo *federation.FedOrder) { fo.ID = -1 }},
	{name: "unknown status", mutate: func(fo *federation.FedOrder) { fo.Status = 9 }},
	{name: "negative leg status", mutate: func(fo *federation.FedOrder) { fo.Legs[1].Status = -1 }},
	{name: "regional id past int32", mutate: func(fo *federation.FedOrder) { fo.Legs[fo.Active].OrderID = 1 << 31 }},
	{name: "regional id below -1", mutate: func(fo *federation.FedOrder) { fo.Legs[1].OrderID = -2 }},
	{name: "active leg never booked", mutate: func(fo *federation.FedOrder) { fo.Legs[fo.Active].OrderID = -1 }},
	{name: "active leg already lost", mutate: func(fo *federation.FedOrder) { fo.Legs[fo.Active].Status = market.Lost }},
	{name: "outcome on an unbooked leg", mutate: func(fo *federation.FedOrder) { fo.Legs[1].Status = market.Lost }},
	{name: "winning region on an open order", mutate: func(fo *federation.FedOrder) { fo.Region = "cold" }},
	{name: "won leg on an open order", mutate: func(fo *federation.FedOrder) { fo.Legs[1].OrderID, fo.Legs[1].Status = 0, market.Won }},

	{name: "update of an unknown order", updated: true, mutate: func(fo *federation.FedOrder) { fo.ID = 99 }},
	{name: "update drops a leg", updated: true, mutate: func(fo *federation.FedOrder) { fo.Legs = fo.Legs[:1] }},
	{name: "update swaps a cluster", updated: true, mutate: func(fo *federation.FedOrder) { fo.Legs[0].Clusters[0] = otherCluster(fo.Legs[0].Clusters[0]) }},
	{name: "update reorders the legs", updated: true, mutate: func(fo *federation.FedOrder) {
		fo.Legs[0], fo.Legs[1], fo.Active = fo.Legs[1], fo.Legs[0], 1-fo.Active
	}},

	{name: "won without a winning leg", updated: true, won: true, mutate: func(fo *federation.FedOrder) { fo.WonLeg().Status = market.Lost }},
	{name: "won twice", updated: true, won: true, mutate: func(fo *federation.FedOrder) {
		for _, l := range fo.Legs {
			l.OrderID, l.Status = 0, market.Won
		}
	}},
	{name: "won in another region", updated: true, won: true, mutate: func(fo *federation.FedOrder) { fo.Region = otherRegion(fo.Region) }},
	{name: "won nowhere", updated: true, won: true, mutate: func(fo *federation.FedOrder) { fo.Region = "" }},
	{name: "won for another payment", updated: true, won: true, mutate: func(fo *federation.FedOrder) { fo.Payment *= 2 }},
	{name: "won a regional order that is not there", updated: true, won: true, mutate: func(fo *federation.FedOrder) { fo.WonLeg().OrderID = 4096 }},
	{name: "won a regional order that lost", updated: true, won: true, mutate: func(fo *federation.FedOrder) { fo.WonLeg().OrderID = 2 }},
}

func otherCluster(c string) string {
	if strings.HasSuffix(c, "1") {
		return c[:len(c)-1] + "2"
	}
	return c[:len(c)-1] + "1"
}

func otherRegion(r string) string {
	if r == "hot" {
		return "cold"
	}
	return "hot"
}

// hostileRecord builds case i's record over f's orders.
func hostileRecord(t testing.TB, f *federation.Federation, i int) []byte {
	t.Helper()
	tc := hostileRecords[i]
	orders := f.Orders()
	tmpl := orders[len(orders)-1]
	if tc.won {
		tmpl = orders[0]
	}
	if (tmpl.Status == market.Won) != tc.won || len(tmpl.Legs) != 2 {
		t.Fatalf("template order is %s over %d legs", dump(tmpl), len(tmpl.Legs))
	}
	kind := federation.EvFedOrderUpdated
	if !tc.updated {
		kind = federation.EvFedOrderSubmitted
		tmpl.ID = len(orders)
	}
	// The untouched template must be a record the router accepts, or the
	// case would be rejected for the wrong reason.
	if err := federation.TestingApplyEvent(hostileFed(t), eventJSON(t, kind, tmpl)); err != nil {
		t.Fatalf("the template record itself is refused: %v", err)
	}
	tc.mutate(tmpl)
	return eventJSON(t, kind, tmpl)
}

// TestReplayRejectsCorruptRoutes replays hostile records: each must come
// back as ErrCorruptRoute — not a panic, not a mis-indexed table — with
// the table exactly as it was.
func TestReplayRejectsCorruptRoutes(t *testing.T) {
	f := hostileFed(t)
	before := federation.TestingTableImage(f)
	for i, tc := range hostileRecords {
		t.Run(tc.name, func(t *testing.T) {
			if err := federation.TestingApplyEvent(f, hostileRecord(t, f, i)); !errors.Is(err, federation.ErrCorruptRoute) {
				t.Fatalf("replay = %v, want ErrCorruptRoute", err)
			}
			if after := federation.TestingTableImage(f); !reflect.DeepEqual(before, after) {
				t.Fatalf("the rejected record wrote to the table:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
	for _, raw := range []string{`{"k":"fed-order-updated"}`, `{"k":"fed-order-submitted","order":{"ID":4}}`, `{"k":"fed-warp"}`} {
		if err := federation.TestingApplyEvent(f, []byte(raw)); err == nil {
			t.Errorf("malformed event %s accepted", raw)
		}
	}
	invariant.RequireFederation(t, "after the hostile records", f)
}

// TestRestoreNamesTheCorruptRecord checks the sequence number a corrupt
// route is reported at: its own for a WAL record, the snapshot's for an
// order of the image.
func TestRestoreNamesTheCorruptRecord(t *testing.T) {
	src := hostileFed(t)
	orders := src.Orders()
	good := eventJSON(t, federation.EvFedOrderSubmitted, orders[0])
	bad := orders[1]
	bad.Active = 7

	corruptAt := func(what string, err error, seq int) {
		t.Helper()
		if !errors.Is(err, federation.ErrCorruptRoute) || !strings.Contains(err.Error(), fmt.Sprintf("at seq %d:", seq)) {
			t.Errorf("%s: restore = %v, want ErrCorruptRoute at seq %d", what, err, seq)
		}
	}
	image := func(nextID int, orders ...*federation.FedOrder) *journal.Recovery {
		raw, err := json.Marshal(map[string]any{"next_id": nextID, "orders": orders})
		if err != nil {
			t.Fatal(err)
		}
		return &journal.Recovery{SnapshotSeq: 17, Snapshot: raw}
	}
	fresh := func() *federation.Federation {
		f := hostileFed(t)
		var regions []*federation.Region
		regions = append(regions, f.Regions()...)
		empty, err := federation.NewFederation(regions...)
		if err != nil {
			t.Fatal(err)
		}
		return empty
	}
	wal := &journal.Recovery{SnapshotSeq: 40, Records: [][]byte{good, eventJSON(t, federation.EvFedOrderSubmitted, bad)}}
	corruptAt("corrupt WAL record", fresh().Restore(wal), 42)

	corruptAt("corrupt snapshot order", fresh().Restore(image(2, orders[0], bad)), 17)
	corruptAt("snapshot whose next id disagrees with its orders", fresh().Restore(image(5, orders[0])), 17)
	corruptAt("snapshot with a null order", fresh().Restore(image(2, orders[0], nil)), 17)
	if err := fresh().Restore(image(1, orders[0])); err != nil {
		t.Errorf("a true snapshot is refused: %v", err)
	}
}

// FuzzFedEventReplay feeds arbitrary bytes to the router's replay seam as
// one journal record over a small driven federation. Whatever they decode
// to, replay must not panic; a record it refuses must leave the table as
// it was, with the typed error when a route is what is wrong with it; a
// record it accepts must leave a table that still passes the federation's
// whole invariant kernel, whose every view stores back unchanged, and
// that settles on.
func FuzzFedEventReplay(f *testing.F) {
	seedFed := hostileFed(f)
	for i := range hostileRecords {
		f.Add(hostileRecord(f, seedFed, i))
	}
	for _, fo := range seedFed.Orders() {
		f.Add(eventJSON(f, federation.EvFedOrderUpdated, fo))
	}
	f.Add([]byte(`{"k":"fed-gossip","tick":9,"quote":{"Region":"hot","Prices":[1,2,3],"Clearing":true,"Tick":9}}`))
	f.Add([]byte(`{"k":"fed-order-submitted"}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		fed := hostileFed(t)
		before := federation.TestingTableImage(fed)
		err := federation.TestingApplyEvent(fed, raw)
		if err != nil {
			var ev federation.FedEvent
			routed := json.Unmarshal(raw, &ev) == nil && ev.Order != nil && ev.Stats != nil &&
				(ev.Kind == federation.EvFedOrderSubmitted || ev.Kind == federation.EvFedOrderUpdated)
			if routed && !errors.Is(err, federation.ErrCorruptRoute) {
				t.Fatalf("a refused route is not an ErrCorruptRoute: %v", err)
			}
			if after := federation.TestingTableImage(fed); !reflect.DeepEqual(before, after) {
				t.Fatalf("the refused record (%v) wrote to the table", err)
			}
			return
		}
		invariant.RequireFederation(t, "after the accepted record", fed)
		if err := federation.TestingRestoreViews(fed); err != nil {
			t.Fatal(err)
		}
		fed.Tick()
		invariant.RequireFederation(t, "a tick after the accepted record", fed)
	})
}

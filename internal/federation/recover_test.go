// Crash-recovery tests live in the external test package so they can run
// the shared invariant kernel on the recovered federation (see
// conservation_test.go for the import-cycle rationale).
package federation_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/fault"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// recoverFleet rebuilds one region's fleet exactly as the crashed process
// built it: the fleet is not journaled, so recovery depends on the owner
// reconstructing it deterministically (same seed, same fill order).
func recoverFleet(t *testing.T, name string, clusters int, util float64) *cluster.Fleet {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	fleet := cluster.NewFleet()
	for i := 1; i <= clusters; i++ {
		cn := fmt.Sprintf("%s-r%d", name, i)
		c := cluster.New(cn, nil)
		c.AddMachines(20, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
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

// fedTopology is the region layout shared by the golden and journaled
// federations: a congested region and a nearly idle one.
var fedTopology = []struct {
	name     string
	clusters int
	util     float64
}{
	{"hot", 2, 0.85},
	{"cold", 2, 0.1},
}

// fedConfig is every region's config; Open gives the router the same
// snapshot cadence.
var fedConfig = market.Config{InitialBudget: 1e6, SnapshotEvery: 3}

// fedMembers builds the topology's regions as Open takes them.
func fedMembers(t *testing.T) []federation.Member {
	t.Helper()
	var members []federation.Member
	for _, tp := range fedTopology {
		members = append(members, federation.Member{Name: tp.name, Fleet: recoverFleet(t, tp.name, tp.clusters, tp.util)})
	}
	return members
}

// openFed opens the topology through Open under dir (in memory when dir
// is ""), funding the team's account when it starts fresh.
func openFed(t *testing.T, dir string) (*federation.Federation, federation.Opened) {
	t.Helper()
	f, op, err := federation.Open(dir, journal.Options{}, fedConfig, fedMembers(t)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if !op.Recovered {
		if err := f.OpenAccount("team"); err != nil {
			t.Fatal(err)
		}
	}
	return f, op
}

func settleIgnoringIdle(t *testing.T, f *federation.Federation, region string) {
	t.Helper()
	if _, err := f.SettleRegion(region); err != nil && !errors.Is(err, market.ErrNoOpenOrders) {
		t.Fatalf("settle %s: %v", region, err)
	}
}

// driveFed exercises the full federated mutation surface: region-local
// and cross-region submits, settlement waves in both regions (failover
// included), a cancellation, and a gossip pass. Returns the ID of an
// order left open for the post-drive phase.
func driveFed(t *testing.T, f *federation.Federation) {
	t.Helper()
	xor := []string{"hot-r1", "hot-r2", "cold-r1", "cold-r2"}
	submit := func(qty, limit float64, clusters []string) int {
		t.Helper()
		id, err := f.SubmitProduct("team", "batch-compute", qty, clusters, limit)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		return id
	}
	submit(8, 4000, xor)
	submit(4, 2500, []string{"hot-r1"})
	submit(6, 3000, xor)
	victim := submit(2, 1500, []string{"cold-r2"})
	if err := f.Cancel(victim); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	settleIgnoringIdle(t, f, "hot")
	settleIgnoringIdle(t, f, "cold")
	submit(10, 6000, xor)
	submit(3, 2000, []string{"cold-r1", "cold-r2"})
	settleIgnoringIdle(t, f, "cold")
	settleIgnoringIdle(t, f, "hot")
	f.Gossip()
}

// driveFedMore is the post-recovery continuation both federations run in
// lockstep: the recovered process must not only match the crashed one at
// the recovery point but keep producing the identical trajectory.
func driveFedMore(t *testing.T, f *federation.Federation) {
	t.Helper()
	xor := []string{"hot-r1", "hot-r2", "cold-r1", "cold-r2"}
	if _, err := f.SubmitProduct("team", "batch-compute", 5, xor, 3500); err != nil {
		t.Fatalf("submit: %v", err)
	}
	settleIgnoringIdle(t, f, "hot")
	settleIgnoringIdle(t, f, "cold")
	f.Gossip()
}

type regionImage struct {
	History []*market.AuctionRecord
	Ledger  []market.LedgerEntry
	Balance float64
	Open    int
}

type fedImage struct {
	Orders  []*federation.FedOrder
	Stats   federation.Stats
	Board   []federation.Quote
	Regions map[string]regionImage
}

func imageOf(t *testing.T, f *federation.Federation) fedImage {
	t.Helper()
	img := fedImage{
		Orders:  f.Orders(),
		Stats:   f.Stats(),
		Board:   f.Board(),
		Regions: make(map[string]regionImage),
	}
	for _, r := range f.Regions() {
		bal, err := r.Exchange().Balance("team")
		if err != nil {
			t.Fatal(err)
		}
		img.Regions[r.Name()] = regionImage{
			History: r.Exchange().History(),
			Ledger:  r.Exchange().Ledger(),
			Balance: bal,
			Open:    r.Exchange().OpenOrderCount(),
		}
	}
	return img
}

// TestFederationCrashRecover kills a fully journaled federation (router
// journal plus one journal per region) mid-run and rebuilds it from disk,
// requiring the recovered process to match a never-crashed golden twin
// exactly — routing tables, price board, router counters, every region's
// books — and to stay in lockstep through a post-recovery drive. The
// recovered federation must also pass the shared invariant kernel before
// serving.
func TestFederationCrashRecover(t *testing.T) {
	dir := t.TempDir()

	// Golden twin: identical topology and drive, no journal.
	golden, _ := openFed(t, "")
	driveFed(t, golden)

	// Journaled federation, same topology.
	live, op := openFed(t, dir)
	if op.Recovered {
		t.Fatal("a fresh directory recovered")
	}
	driveFed(t, live)

	crashedImage := imageOf(t, live)

	// Crash every journal without flushing, then resurrect from disk.
	for _, r := range live.Regions() {
		r.Exchange().Journal().Crash()
	}
	live.Journal().Crash()

	recovered, op := openFed(t, dir)
	if !op.Recovered {
		t.Fatal("the crashed directory started fresh")
	}
	for _, r := range recovered.Regions() {
		invariant.Require(t, "recovered region "+r.Name(), invariant.CheckExchange(r.Exchange()))
	}
	invariant.Require(t, "recovered federation", invariant.CheckFederation(recovered))

	recoveredImage := imageOf(t, recovered)
	if !reflect.DeepEqual(crashedImage, recoveredImage) {
		t.Fatalf("recovered federation diverges from crashed process:\ncrashed:   %+v\nrecovered: %+v",
			crashedImage, recoveredImage)
	}
	if !reflect.DeepEqual(imageOf(t, golden), recoveredImage) {
		t.Fatal("recovered federation diverges from never-crashed golden twin")
	}

	// Lockstep continuation: the recovered process and the golden twin
	// must produce identical trajectories from here on.
	driveFedMore(t, golden)
	driveFedMore(t, recovered)
	invariant.Require(t, "post-recovery federation", invariant.CheckFederation(recovered))
	if !reflect.DeepEqual(imageOf(t, golden), imageOf(t, recovered)) {
		t.Fatal("post-recovery drive diverges from golden twin")
	}
}

// TestFederationRestoreRejectsNonEmpty guards the recovery precondition:
// Restore refuses a federation that already has routing state, rather
// than silently merging two histories.
func TestFederationRestoreRejectsNonEmpty(t *testing.T) {
	f, _ := openFed(t, "")
	if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 500); err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(&journal.Recovery{}); err == nil {
		t.Fatal("Restore accepted a federation with existing routing state")
	}
}

// TestRouterJournalHealsAfterFailedAppend: router writes that fail past
// the journal's heal loop leave no hole in what it recovers. While the
// disk fails, a routed submit is refused and a settle still runs; once it
// heals, routed traffic and settles continue, and a crash then recovers
// the live router record for record.
func TestRouterJournalHealsAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New()
	live, _, err := federation.Open(dir, journal.Options{FS: fault.NewFS(inj, nil)}, fedConfig, fedMembers(t)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	if err := live.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	driveFed(t, live)

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Scope: "/" + federation.RouterDir + "/", Kind: fault.EIO, Count: 100000}})
	xor := []string{"hot-r1", "hot-r2", "cold-r1", "cold-r2"}
	if _, err := live.SubmitProduct("team", "batch-compute", 2, xor, 3000); err == nil {
		t.Fatal("routed submit with a failing router WAL succeeded")
	}
	if !live.Journal().Failing() {
		t.Fatal("the router WAL is not failing")
	}
	settleIgnoringIdle(t, live, "hot")
	inj.Arm(nil)
	driveFedMore(t, live)
	if live.Journal().Failing() {
		t.Fatal("the router WAL is still failing after the disk healed")
	}
	requireCrashRecoversLive(t, dir, live)
}

// requireCrashRecoversLive crashes every journal of live, journaled under
// dir, and requires the federation recovered from dir to be the live one:
// its router table record for record, and its orders, board and books.
func requireCrashRecoversLive(t *testing.T, dir string, live *federation.Federation) {
	t.Helper()
	want, wantImage := federation.TestingTableImage(live), imageOf(t, live)
	for _, r := range live.Regions() {
		r.Exchange().Journal().Crash()
	}
	live.Journal().Crash()
	recovered, op := openFed(t, dir)
	if !op.Recovered {
		t.Fatal("the crashed directory started fresh")
	}
	invariant.Require(t, "recovered federation", invariant.CheckFederation(recovered))
	if got := federation.TestingTableImage(recovered); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered router table diverges from the live one:\nlive:      %+v\nrecovered: %+v", want, got)
	}
	if got := imageOf(t, recovered); !reflect.DeepEqual(wantImage, got) {
		t.Fatalf("recovered federation diverges from the live one:\nlive:      %+v\nrecovered: %+v", wantImage, got)
	}
}

// TestRouterOutageCostsOneImageATick: while the router WAL is failing, a
// Tick's gossip pass and settlement wave publish their events without an
// image each and end in one snapshot attempt, so the Tick costs the
// journal one failure however many orders its wave decides. Once the disk
// heals, a crash recovers the live router.
func TestRouterOutageCostsOneImageATick(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New()
	live, _, err := federation.Open(dir, journal.Options{FS: fault.NewFS(inj, nil)}, fedConfig, fedMembers(t)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	if err := live.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []float64{2500, 3000, 3500, 4000} {
		if _, err := live.SubmitProduct("team", "batch-compute", 4, []string{"hot-r1", "cold-r1"}, limit); err != nil {
			t.Fatal(err)
		}
	}

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Scope: "/" + federation.RouterDir + "/", Kind: fault.EIO, Count: 100000}})
	if _, err := live.SubmitProduct("team", "batch-compute", 1, []string{"cold-r2"}, 500); err == nil || !live.Journal().Failing() {
		t.Fatalf("routed submit with a failing router WAL = %v, want refused and the WAL failing", err)
	}
	stats, failures := live.Stats(), live.Journal().Metrics().Failures
	live.Tick()
	after := live.Stats()
	if decided := after.Won + after.Lost + after.Unsettled + after.Failovers - stats.Won - stats.Lost - stats.Unsettled - stats.Failovers; decided < 3 {
		t.Fatalf("the wave decided %d orders, want at least 3 (stats %+v)", decided, after)
	}
	if got := live.Journal().Metrics().Failures - failures; got != 1 {
		t.Errorf("a Tick during the outage cost the router journal %d failures, want 1", got)
	}

	inj.Arm(nil)
	driveFedMore(t, live)
	if live.Journal().Failing() {
		t.Fatal("the router WAL is still failing after the disk healed")
	}
	requireCrashRecoversLive(t, dir, live)
}

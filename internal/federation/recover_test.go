// Crash-recovery tests live in the external test package so they can run
// the shared invariant kernel on the recovered federation (see
// conservation_test.go for the import-cycle rationale).
package federation_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"clustermarket/internal/cluster"
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

func regionConfig(j *journal.Journal) market.Config {
	return market.Config{InitialBudget: 1e6, Journal: j, SnapshotEvery: 4}
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

func buildFed(t *testing.T, regions []*federation.Region) *federation.Federation {
	t.Helper()
	f, err := federation.NewFederation(regions...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	return f
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
	var goldenRegions []*federation.Region
	for _, tp := range fedTopology {
		r, err := federation.NewRegion(tp.name, recoverFleet(t, tp.name, tp.clusters, tp.util), regionConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		goldenRegions = append(goldenRegions, r)
	}
	golden := buildFed(t, goldenRegions)
	driveFed(t, golden)

	// Journaled federation, same topology.
	journals := make([]*journal.Journal, 0, len(fedTopology)+1)
	var liveRegions []*federation.Region
	for _, tp := range fedTopology {
		j, rec, err := journal.Open(filepath.Join(dir, tp.name), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Empty() {
			t.Fatalf("fresh region journal %s not empty", tp.name)
		}
		journals = append(journals, j)
		r, err := federation.NewRegion(tp.name, recoverFleet(t, tp.name, tp.clusters, tp.util), regionConfig(j))
		if err != nil {
			t.Fatal(err)
		}
		liveRegions = append(liveRegions, r)
	}
	fj, frec, err := journal.Open(filepath.Join(dir, "fed"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !frec.Empty() {
		t.Fatal("fresh federation journal not empty")
	}
	journals = append(journals, fj)
	live := buildFed(t, liveRegions)
	live.AttachJournal(fj, 3)
	driveFed(t, live)

	crashedImage := imageOf(t, live)

	// Crash every journal without flushing, then resurrect from disk.
	for _, j := range journals {
		j.Crash()
	}

	var recRegions []*federation.Region
	for _, tp := range fedTopology {
		j, rec, err := journal.Open(filepath.Join(dir, tp.name), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		cfg := regionConfig(j)
		r, err := federation.RecoverRegion(tp.name, recoverFleet(t, tp.name, tp.clusters, tp.util), cfg, rec)
		if err != nil {
			t.Fatalf("recover region %s: %v", tp.name, err)
		}
		invariant.Require(t, "recovered region "+tp.name, invariant.CheckExchange(r.Exchange()))
		recRegions = append(recRegions, r)
	}
	fj2, frec2, err := journal.Open(filepath.Join(dir, "fed"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fj2.Close()
	recovered, err := federation.NewFederation(recRegions...)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.Restore(frec2); err != nil {
		t.Fatalf("restore federation: %v", err)
	}
	recovered.AttachJournal(fj2, 3)
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
	var regions []*federation.Region
	for _, tp := range fedTopology {
		r, err := federation.NewRegion(tp.name, recoverFleet(t, tp.name, tp.clusters, tp.util), regionConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	f := buildFed(t, regions)
	if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 500); err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(&journal.Recovery{}); err == nil {
		t.Fatal("Restore accepted a federation with existing routing state")
	}
}

package market_test

// A journal directory written by the commit before terminal orders left
// the pointer graph (58490ff: orders as objects, the ledger a slice of
// entries with formatted memos) is checked in under testdata. It must
// recover on every later commit, and the recovered book must snapshot to
// the bytes that commit's own recovery snapshotted to: the wire form of
// events and images is the compatibility contract, whatever the book is
// made of in memory.
//
// MARKET_FIXTURE_OUT=<dir> go test -run TestParentWrittenJournalRecovers
// regenerates the fixture with the commit under test as the writer.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

const fixtureDir = "testdata/parent_journal"

// fixtureScript drives every kind of state the archive holds through a
// journaled exchange: a snapshot in the middle, a WAL tail after it.
func fixtureScript(t *testing.T, e *market.Exchange) {
	t.Helper()
	driveMarket(t, e)
	reg := e.Registry()
	pool := func(cl string, d resource.Dimension) int { return mustIndex(reg, resource.Pool{Cluster: cl, Dim: d}) }
	// A vector-π bid and a seller. The checked-in snapshot also holds
	// ledger rows whose memos read like the settlement's own, posted by an
	// off-auction credit its writer had and later commits do not: a
	// regenerated fixture lacks them, so keep the checked-in one.
	a, b := reg.Zero(), reg.Zero()
	a[pool("alpha", resource.CPU)], b[pool("beta", resource.CPU)] = 2, 3
	if _, err := e.Submit("maps", &core.Bid{Bundles: []resource.Vector{a, b}, BundleLimits: []float64{90, 120}}); err != nil {
		t.Fatal(err)
	}
	s := reg.Zero()
	s[pool("beta", resource.RAM)] = -4
	if _, err := e.Submit("ads", &core.Bid{User: "ads/reseller", Bundles: []resource.Vector{s}, Limit: -1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatalf("auction: %v", err)
	}
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	driveMarketMore(t, e)
	late, err := e.SubmitProduct("search", "batch-compute", 1, []string{"alpha"}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Cancel(late); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitProduct("maps", "batch-compute", 1, []string{"alpha", "beta"}, 150); err != nil {
		t.Fatal(err)
	}
}

// recoverAndResnapshot recovers the journal in dir, checks the book and
// returns the snapshot file a fresh Snapshot of it writes.
func recoverAndResnapshot(t *testing.T, dir string) []byte {
	t.Helper()
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec.SnapshotSeq == 0 || len(rec.Records) == 0 {
		t.Fatalf("fixture holds snapshot seq %d and %d WAL records; want both", rec.SnapshotSeq, len(rec.Records))
	}
	e, err := market.Recover(recoverFleet(t), marketCfg(j, -1), rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if vs := invariant.CheckExchange(e); len(vs) > 0 {
		t.Fatalf("recovered exchange violates invariants: %v", vs)
	}
	checkRowsOnly(t, "recovered", e)
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestParentWrittenJournalRecovers(t *testing.T) {
	if out := os.Getenv("MARKET_FIXTURE_OUT"); out != "" {
		writeFixture(t, out)
		return
	}
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal"} {
		raw, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(fixtureDir, "resnapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := recoverAndResnapshot(t, dir); !bytes.Equal(got, want) {
		t.Errorf("the recovered book snapshots to different bytes than its writer's recovery did:\n got: %s\nwant: %s", got, want)
	}
}

func writeFixture(t *testing.T, out string) {
	j, _, err := journal.Open(out, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := market.NewExchange(recoverFleet(t), marketCfg(j, -1))
	if err != nil {
		t.Fatal(err)
	}
	fixtureScript(t, e)
	j.Crash()
	// The resnapshot is taken from a copy: the fixture keeps its WAL tail.
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal"} {
		raw, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(out, "resnapshot.json"), recoverAndResnapshot(t, dir), 0o644); err != nil {
		t.Fatal(err)
	}
	_ = os.Remove(filepath.Join(out, "LOCK"))
}

// mustIndex is reg's index of pool p, which the test registered.
func mustIndex(reg *resource.Registry, p resource.Pool) int {
	i, ok := reg.Index(p)
	if !ok {
		panic(fmt.Sprintf("pool %v not registered", p))
	}
	return i
}

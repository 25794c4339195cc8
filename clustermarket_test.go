package clustermarket_test

import (
	"testing"

	cm "clustermarket"
)

// TestFacadeJournalRecovery drives the durability surface end to end
// through the facade: journaled exchange, a settled auction, process
// "death" (journal closed), then OpenJournal + RecoverExchange into a
// book that matches the one that died.
func TestFacadeJournalRecovery(t *testing.T) {
	buildFleet := func() *cm.Fleet {
		fleet := cm.NewFleet()
		for _, name := range []string{"r1", "r2"} {
			c := cm.NewCluster(name)
			c.AddMachines(8, cm.Usage{CPU: 16, RAM: 64, Disk: 10})
			if err := fleet.AddCluster(c); err != nil {
				t.Fatal(err)
			}
		}
		return fleet
	}
	dir := t.TempDir()

	j, rec, err := cm.OpenJournal(dir, cm.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatal("fresh journal dir is not empty")
	}
	cfg := cm.ExchangeConfig{InitialBudget: 2000, Journal: j}
	ex, err := cm.NewExchange(buildFleet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, team := range []string{"search", "ads"} {
		if err := ex.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ex.SubmitProduct("search", "bigtable-node", 4, []string{"r1", "r2"}, 300); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	wantHistory := ex.AuctionCount()
	wantBalance, err := ex.Balance("search")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec2, err := cm.OpenJournal(dir, cm.JournalOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.Empty() {
		t.Fatal("journal lost the run")
	}
	cfg.Journal = j2
	ex2, err := cm.RecoverExchange(buildFleet(), cfg, rec2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ex2.AuctionCount(); got != wantHistory {
		t.Fatalf("recovered %d auctions, want %d", got, wantHistory)
	}
	got, err := ex2.Balance("search")
	if err != nil {
		t.Fatal(err)
	}
	if got != wantBalance {
		t.Fatalf("recovered balance %v, want %v", got, wantBalance)
	}
}

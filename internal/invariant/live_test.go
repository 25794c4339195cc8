package invariant

import (
	"encoding/json"
	"slices"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// corruptExchange recovers an exchange from a fabricated snapshot. A
// snapshot's money state is authoritative, so the book takes it
// verbatim: the cross-cancelling ledger of TestCheckLedgerBalanced
// (auctions 1 and 2 each off by 3, the total balanced) and the overdrawn
// account of TestCheckBalancesNonNegative.
func corruptExchange(t *testing.T) *market.Exchange {
	t.Helper()
	state := map[string]any{
		"balances": map[string]float64{"a": -0.5, "b": 12.5},
		"ledger": []market.LedgerEntry{
			{Seq: 0, Auction: 1, Team: "a", Amount: -10},
			{Seq: 1, Auction: 1, Team: market.OperatorAccount, Amount: 7},
			{Seq: 2, Auction: 2, Team: "b", Amount: -4},
			{Seq: 3, Auction: 2, Team: market.OperatorAccount, Amount: 7},
		},
	}
	raw, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	fleet := cluster.NewFleet()
	c := cluster.New("c1", nil)
	c.AddMachines(2, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
	if err := fleet.AddCluster(c); err != nil {
		t.Fatal(err)
	}
	ex, err := market.Recover(fleet, market.Config{InitialBudget: 1e5}, &journal.Recovery{SnapshotSeq: 1, Snapshot: raw})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestCheckLiveCatchesCorruptBook proves the live subset catches a
// ledger imbalance and a negative balance on a real exchange, and that
// CheckExchange reports the same violations first. (A clean, traded
// exchange passes it inside TestCheckExchangeCleanMarket.)
func TestCheckLiveCatchesCorruptBook(t *testing.T) {
	ex := corruptExchange(t)
	live := CheckLive(ex)
	want := []string{"ledger-balanced", "ledger-balanced", "non-negative-balance"}
	if got := names(live); !slices.Equal(got, want) {
		t.Fatalf("CheckLive = %v, want %v", live, want)
	}
	if full := CheckExchange(ex); len(full) < len(live) || !slices.Equal(full[:len(live)], live) {
		t.Errorf("CheckExchange = %v, want it to open with %v", full, live)
	}
}

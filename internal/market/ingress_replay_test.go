package market_test

import (
	"errors"
	"strings"
	"testing"

	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// recoverRaw writes records as a fresh WAL, reopens it and recovers an
// exchange over the recovery fleet.
func recoverRaw(t *testing.T, records ...string) (*market.Exchange, error) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if _, err := j.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return market.Recover(recoverFleet(t), market.Config{InitialBudget: 1000}, rec)
}

// TestReplayedSubmitPassesIngress is the regression test for replay
// booking order-submitted records the live door would have refused. The
// recovery fleet has two clusters, so a bundle is six pools wide.
func TestReplayedSubmitPassesIngress(t *testing.T) {
	const opened = `{"k":"account-opened","team":"ads","balance":1000}`
	bid := func(body string) string {
		return `{"k":"order-submitted","team":"ads","order":0,"bid":` + body + `}`
	}
	good := bid(`{"User":"ads/batch-compute","Bundles":[[1,2,0,0,0,0]],"Limit":50,"BundleLimits":null}`)
	if e, err := recoverRaw(t, opened, good); err != nil || e.OpenOrderCount() != 1 {
		t.Fatalf("well-formed record: %v", err)
	}

	for name, rec := range map[string]string{
		"wrong width":         bid(`{"User":"ads/batch-compute","Bundles":[[1,2,0]],"Limit":50}`),
		"no bundles":          bid(`{"User":"ads/batch-compute","Bundles":[],"Limit":50}`),
		"no user":             bid(`{"User":"","Bundles":[[1,2,0,0,0,0]],"Limit":50}`),
		"bundle limits count": bid(`{"User":"ads/x","Bundles":[[1,2,0,0,0,0]],"Limit":0,"BundleLimits":[5,6]}`),
		"unknown team":        strings.Replace(good, `"team":"ads"`, `"team":"ghost"`, 1),
	} {
		_, err := recoverRaw(t, opened, rec)
		var re *market.ReplayedOrderError
		if !errors.As(err, &re) || re.OrderID != 0 || !strings.Contains(err.Error(), "order 0") {
			t.Errorf("%s: recovered with %v, want a ReplayedOrderError naming order 0", name, err)
		}
	}
	// A non-finite limit has no JSON spelling; such a record is refused
	// at decode, before it could be booked.
	if _, err := recoverRaw(t, opened, bid(`{"User":"ads/x","Bundles":[[1,0,0,0,0,0]],"Limit":NaN}`)); err == nil {
		t.Error("NaN limit recovered")
	}
}

package market_test

import (
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// FuzzSettledEventReplay replays one arbitrary order-settled record onto a
// small book of open orders, as recovery would meet it in a hostile or
// corrupt WAL. The record's shape is the fuzzer's — order, status, auction,
// attempts, and the bundle index that is all a winner's allocation — and
// whatever it is, replay must not panic and must end in one of two ways: an
// error (ErrCorruptSettlement when a winner's bundle index is the reason),
// or a book the whole invariant kernel passes in which every winner holds
// a grant. The payment alone is folded into the order's limit: it is money
// the clock computed, not structure, and a doctored amount is what
// invariant.CheckSettlementEconomics reports.
func FuzzSettledEventReplay(f *testing.F) {
	const limit = 300
	dir := filepath.Join(f.TempDir(), "wal")
	j, _, err := journal.Open(dir, journal.Options{FsyncEvery: 8})
	if err != nil {
		f.Fatal(err)
	}
	e, err := market.NewExchange(recoverFleet(f), marketCfg(j, -1))
	if err != nil {
		f.Fatal(err)
	}
	if err := e.OpenAccount("maps"); err != nil {
		f.Fatal(err)
	}
	bundles := []int{1, 2, 1} // per order
	for _, clusters := range [][]string{{"alpha"}, {"alpha", "beta"}, {"beta"}} {
		if _, err := e.SubmitProduct("maps", "batch-compute", 1, clusters, limit); err != nil {
			f.Fatal(err)
		}
	}
	j.Crash()
	j2, base, err := journal.Open(dir, journal.Options{FsyncEvery: 8})
	if err != nil {
		f.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		f.Fatal(err)
	}

	for _, seed := range []string{
		`{"k":"order-settled","order":1,"auction":1,"status":1,"bundle":1,"payment":12.5}`,
		`{"k":"order-settled","order":0,"auction":1,"status":1,"bundle":0,"payment":40}`,
		`{"k":"order-settled","order":1,"auction":1,"status":1,"payment":12.5}`,
		`{"k":"order-settled","order":1,"auction":1,"status":1,"bundle":2,"payment":12.5}`,
		`{"k":"order-settled","order":2,"auction":3,"status":1,"bundle":-1,"payment":1e300}`,
		`{"k":"order-settled","order":0,"auction":1,"status":1,"alloc":[2,8,1,0,0,0],"payment":40}`,
		`{"k":"order-settled","order":2,"auction":1,"status":2}`,
		`{"k":"order-settled","order":1,"auction":2,"status":4,"attempts":3}`,
		`{"k":"order-settled","order":9,"status":1,"bundle":0}`,
		`{"k":"order-settled","order":0,"status":0,"bundle":0}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ev market.Event
		if json.Unmarshal(raw, &ev) != nil {
			return
		}
		ev.Kind = market.EvOrderSettled
		ev.Payment = math.Mod(math.Abs(ev.Payment), limit)
		record, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		rec := *base
		rec.Records = append(append([][]byte(nil), base.Records...), record)
		ex, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), &rec)
		if err != nil {
			booked := ev.OrderID >= 0 && ev.OrderID < len(bundles)
			if booked && ev.Status == market.Won &&
				(ev.Bundle == nil || *ev.Bundle < 0 || *ev.Bundle >= bundles[ev.OrderID]) &&
				!errors.Is(err, market.ErrCorruptSettlement) {
				t.Fatalf("%s: Recover = %v, want ErrCorruptSettlement", record, err)
			}
			return
		}
		if vs := invariant.CheckExchange(ex); len(vs) > 0 {
			t.Fatalf("%s replayed into a book that breaks invariants: %v", record, vs)
		}
		for _, o := range ex.Orders() {
			pools, qty := o.Grant()
			if (o.Status == market.Won) != (len(pools) > 0) || len(pools) != len(qty) {
				t.Fatalf("%s: order %d is %s with grant %v %v", record, o.ID, o.Status, pools, qty)
			}
			if alloc := o.Allocation(); (o.Status == market.Won) != (alloc != nil) {
				t.Fatalf("%s: order %d is %s with allocation %v", record, o.ID, o.Status, alloc)
			}
		}
	})
}

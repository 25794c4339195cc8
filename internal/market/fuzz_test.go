package market_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
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
	j, _, err := journal.Open(dir, journal.Options{})
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
	j2, base, err := journal.Open(dir, journal.Options{})
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

// FuzzRestoreState hands the snapshot loader arbitrary bytes — seeded
// with the real image driveMarket's script leaves (orders won, cancelled
// and open; placements, an eviction, credits), and with that image doctored
// the ways TestRestoreRejectsCorruptImage doctors it. Whatever they are, Recover must not panic and must end in
// one of two ways: ErrCorruptSnapshot, or the book the image describes —
// every order it lists readable under its id with the status, auction,
// attempts and payment it states, no order that is neither open nor
// terminal, the open count and the ledger's sequence numbers in step, and
// the whole invariant kernel able to run over it. What the kernel then
// says about the image's money (a doctored balance, a payment above its
// limit) is the image's to answer for, not the loader's: the loader's
// contract is that nothing is silently different from what was written.
func FuzzRestoreState(f *testing.F) {
	base := recoveryOf(f, true)
	f.Add([]byte(base.Snapshot))
	for _, edit := range [][2]string{
		{`"status":3`, `"status":7`}, {`"status":3`, `"status":-1`}, {`"status":1`, `"status":0`},
		{`"auction":1`, `"auction":1099511627776`}, {`"Seq":1`, `"Seq":5`}, {`"bundle":0`, `"bundle":4`},
		{`"id":2`, `"id":5`}, {`"bid":{`, `"bid":null,"was":{`}, {`"Memo":"order 0 settlement"`, `"Memo":"order 00 settlement"`},
	} {
		if !bytes.Contains(base.Snapshot, []byte(edit[0])) {
			f.Fatalf("the seed image has no %s to doctor", edit[0])
		}
		f.Add(bytes.Replace(base.Snapshot, []byte(edit[0]), []byte(edit[1]), 1))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return // no snapshot at all: Recover starts an empty book
		}
		ex, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), &journal.Recovery{SnapshotSeq: base.SnapshotSeq, Snapshot: raw})
		if err != nil {
			if !errors.Is(err, market.ErrCorruptSnapshot) {
				t.Fatalf("Recover = %v, want ErrCorruptSnapshot", err)
			}
			return
		}
		var image struct {
			Orders []struct {
				ID       int                `json:"id"`
				Team     string             `json:"team"`
				Status   market.OrderStatus `json:"status"`
				Auction  int                `json:"auction"`
				Attempts int                `json:"attempts"`
				Payment  float64            `json:"payment"`
			} `json:"orders"`
			Ledger []market.LedgerEntry `json:"ledger"`
		}
		if err := json.Unmarshal(raw, &image); err != nil {
			t.Fatalf("restored an image that does not decode: %v", err)
		}
		orders := ex.Orders()
		if len(orders) != len(image.Orders) {
			t.Fatalf("the image lists %d orders, the book holds %d", len(image.Orders), len(orders))
		}
		open := 0
		for _, want := range image.Orders {
			got, err := ex.Order(want.ID)
			if err != nil {
				t.Fatalf("order %d of the image is not in the book: %v", want.ID, err)
			}
			if got.Team != want.Team || got.Status != want.Status || got.Auction != want.Auction ||
				got.Attempts != want.Attempts || got.Payment != want.Payment && want.Payment == want.Payment {
				t.Fatalf("order %d restored as %+v, the image says %+v", want.ID, got, want)
			}
			if got.Status < market.Open || got.Status > market.Unsettled {
				t.Fatalf("order %d restored with status %d: neither open nor terminal", got.ID, got.Status)
			}
			if got.Status == market.Open {
				open++
			}
		}
		if n := ex.OpenOrderCount(); n != open {
			t.Fatalf("open count %d, the book holds %d open orders", n, open)
		}
		ledger := ex.Ledger()
		if len(ledger) != len(image.Ledger) {
			t.Fatalf("the image lists %d ledger entries, the book holds %d", len(image.Ledger), len(ledger))
		}
		for i, le := range ledger {
			if le.Seq != i || le.Memo != image.Ledger[i].Memo || le.Team != image.Ledger[i].Team {
				t.Fatalf("ledger entry %d restored as %+v, the image says %+v", i, le, image.Ledger[i])
			}
		}
		for _, v := range invariant.CheckExchange(ex) {
			if v.Invariant == "open-count" {
				t.Fatalf("restored book: %s", v)
			}
		}
	})
}

// FuzzRecoverWAL recovers the checked-in parent journal with its WAL
// replaced by arbitrary bytes, seeded with that WAL truncated and
// bit-flipped along its length. Whatever the bytes, journal.Open and
// Recover must not panic and must end in one of two ways: a typed error —
// a WAL with no prefix to recover (journal.ErrCorruptWAL) or a record the
// book cannot replay (ErrCorruptRecord) — or an exchange the whole
// invariant kernel passes. A truncated WAL is what a crash leaves: it
// must recover, to a prefix, by id, of the orders the whole WAL books.
func FuzzRecoverWAL(f *testing.F) {
	snap, err := os.ReadFile(filepath.Join(fixtureDir, "snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(fixtureDir, "wal"))
	if err != nil {
		f.Fatal(err)
	}
	full, err := recoverWAL(f, snap, wal)
	if err != nil {
		f.Fatal(err)
	}
	all := full.Orders()
	f.Add(wal)
	for cut := 0; cut < len(wal); cut += 13 {
		f.Add(wal[:cut])
	}
	for bit := 0; bit < 8*len(wal); bit += 97 {
		flipped := bytes.Clone(wal)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		truncated := bytes.HasPrefix(wal, data)
		ex, err := recoverWAL(t, snap, data)
		if err != nil {
			if truncated || !errors.Is(err, journal.ErrCorruptWAL) && !errors.Is(err, market.ErrCorruptRecord) {
				t.Fatalf("recovery = %v; want a book from a truncated WAL, a typed error from any other", err)
			}
			return
		}
		if vs := invariant.CheckExchange(ex); len(vs) > 0 {
			t.Fatalf("recovered a book that breaks invariants: %v", vs)
		}
		if !truncated {
			return
		}
		got := ex.Orders()
		if len(got) > len(all) {
			t.Fatalf("a truncated WAL recovered %d orders, the whole WAL %d", len(got), len(all))
		}
		for i, o := range got {
			if w := all[i]; o.ID != w.ID || o.Team != w.Team || o.Bid.User != w.Bid.User || o.Bid.Limit != w.Bid.Limit {
				t.Fatalf("a truncated WAL recovered order %d as %s/%s limit %g; the whole WAL has order %d as %s/%s limit %g",
					o.ID, o.Team, o.Bid.User, o.Bid.Limit, w.ID, w.Team, w.Bid.User, w.Bid.Limit)
			}
		}
	})
}

// recoverWAL opens a journal directory holding the snapshot and the WAL
// given and recovers a book from it, detached from the journal.
func recoverWAL(t testing.TB, snap, wal []byte) (*market.Exchange, error) {
	t.Helper()
	dir := t.TempDir()
	for name, raw := range map[string][]byte{"snapshot.json": snap, "wal": wal} {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	return market.Recover(recoverFleet(t), marketCfg(nil, -1), rec)
}

package market_test

// The record/view seam. A terminal order is a pointer-free record in the
// stripe's archive and a billing entry a 24-byte one; Order, Orders,
// OrdersTail, Ledger and the snapshot builder are views over them. These
// tests hold the views to what the objects they replaced would have said.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// seamRun is one seeded run of everything that reaches the archive,
// against a journaled exchange, with a model of what the book of objects
// and the ledger of formatted entries would hold beside it.
type seamRun struct {
	t   *testing.T
	rng *rand.Rand
	e   *market.Exchange
	cfg market.Config
	// ledger is the model: the entries the parent's appliers appended,
	// memos formatted the way they formatted them.
	ledger []market.LedgerEntry
	open   map[int]bool
	teams  []string
}

func (r *seamRun) post(auction int, team string, amount float64, memo, counter string) {
	r.ledger = append(r.ledger,
		market.LedgerEntry{Seq: len(r.ledger), Auction: auction, Team: team, Amount: amount, Memo: memo},
		market.LedgerEntry{Seq: len(r.ledger) + 1, Auction: auction, Team: market.OperatorAccount, Amount: -amount, Memo: counter})
}

// submit books one random bid: a product order, a vector-π bid, a seller,
// a trader, a bundle with a −0 component, or — rarely — a bid whose rows
// outgrow a whole row chunk.
func (r *seamRun) submit() {
	t, e, rng := r.t, r.e, r.rng
	reg := e.Registry()
	team := r.teams[rng.Intn(len(r.teams))]
	vec := func(sign float64) resource.Vector {
		q := reg.Zero()
		for k := 0; k < 1+rng.Intn(3); k++ {
			q[rng.Intn(reg.Len())] = sign * float64(2+rng.Intn(30))
		}
		return q
	}
	var id int
	var err error
	switch kind := rng.Intn(12); {
	case kind < 5:
		clusters := []string{"alpha", "beta"}
		if rng.Intn(2) == 0 {
			clusters = clusters[rng.Intn(2):][:1]
		}
		id, err = e.SubmitProduct(team, "batch-compute", float64(2+rng.Intn(20)), clusters, float64(20+rng.Intn(400)))
	case kind < 7: // vector π
		id, err = e.Submit(team, &core.Bid{Bundles: []resource.Vector{vec(1), vec(1), vec(1)},
			BundleLimits: []float64{float64(30 + rng.Intn(200)), float64(30 + rng.Intn(200)), float64(30 + rng.Intn(200))}})
	case kind < 8: // seller
		id, err = e.Submit(team, &core.Bid{User: team + "/resale", Bundles: []resource.Vector{vec(-1)}, Limit: -float64(1 + rng.Intn(5))})
	case kind < 9: // trader: buys one pool, sells another
		q := reg.Zero()
		q[0], q[reg.Len()-1] = float64(1+rng.Intn(3)), -float64(1+rng.Intn(3))
		id, err = e.Submit(team, &core.Bid{Bundles: []resource.Vector{q}, Limit: float64(rng.Intn(40))})
	case kind < 11: // a −0 component is booked as absent
		q := vec(1)
		for i := range q {
			if q[i] == 0 {
				q[i] = math.Copysign(0, -1)
				break
			}
		}
		id, err = e.Submit(team, &core.Bid{Bundles: []resource.Vector{q}, Limit: float64(20 + rng.Intn(300))})
	default: // 900 bundles of up to six pools: far wider than one row chunk
		wide := make([]resource.Vector, 900)
		for i := range wide {
			wide[i] = reg.Zero()
			for p := range wide[i] {
				wide[i][p] = float64(1 + (i+p)%7)
			}
		}
		id, err = e.Submit(team, &core.Bid{Bundles: wide, Limit: float64(50 + rng.Intn(100))})
	}
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	r.open[id] = true
}

// cancel withdraws one open order and holds the archived view to the
// snapshot taken just before.
func (r *seamRun) cancel() {
	ids := r.openIDs()
	if len(ids) == 0 {
		return
	}
	id := ids[r.rng.Intn(len(ids))]
	want, err := r.e.Order(id)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.e.Cancel(id); err != nil {
		r.t.Fatalf("cancel %d: %v", id, err)
	}
	want.Status = market.Cancelled
	r.sameOrder(id, want)
	delete(r.open, id)
}

func (r *seamRun) openIDs() []int {
	ids := make([]int, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (r *seamRun) sameOrder(id int, want *market.Order) {
	r.t.Helper()
	got, err := r.e.Order(id)
	if err != nil {
		r.t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		r.t.Fatalf("order %d's view differs from the object it replaced:\n got: %+v bid %+v\nwant: %+v bid %+v", id, got, got.Bid, want, want.Bid)
	}
	if st, pay, ok := r.e.Outcome(id); !ok || st != want.Status || pay != want.Payment {
		r.t.Fatalf("Outcome(%d) = %v, %v, %v; the order says %v, %v", id, st, pay, ok, want.Status, want.Payment)
	}
}

// auction runs one binding auction — with cancels racing it when race is
// set — and holds every order of the batch to the snapshot taken before
// the clock, moved to its terminal state by the auction's own result.
func (r *seamRun) auction(race bool) {
	t, e := r.t, r.e
	before := make(map[int]*market.Order)
	ids := r.openIDs()
	for _, id := range ids {
		o, err := e.Order(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = o
	}
	cancelled := make(map[int]bool)
	var wg sync.WaitGroup
	if race {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				if id%3 == 0 && e.Cancel(id) == nil {
					cancelled[id] = true // won the race: withdrawn before the claim
				}
			}
		}()
	}
	rec, res, err := e.RunAuction()
	wg.Wait()
	if err != nil && !errors.Is(err, core.ErrNoConvergence) && !errors.Is(err, market.ErrNoOpenOrders) {
		t.Fatalf("auction: %v", err)
	}
	var batch []int
	survivors := 0 // cancelled only after a failed clock had let them go
	for _, id := range ids {
		want := before[id]
		if cancelled[id] {
			if got, _ := e.Order(id); err != nil && got != nil && got.Attempts == want.Attempts+1 {
				want.Attempts++
				survivors++
			}
			want.Status = market.Cancelled
			r.sameOrder(id, want)
			delete(r.open, id)
			continue
		}
		batch = append(batch, id)
	}
	if rec == nil {
		if len(batch) != 0 {
			t.Fatalf("no auction ran over %d open orders: %v", len(batch), err)
		}
		return
	}
	if rec.Submitted != len(batch)+survivors {
		t.Fatalf("auction %d claimed %d orders, the model says %d", rec.Number, rec.Submitted, len(batch)+survivors)
	}
	for i, id := range batch {
		want := before[id]
		switch {
		case err != nil: // a failed clock settles nothing and retires the persistent
			want.Attempts++
			if want.Attempts >= 3 { // the exchange retires an order on its third failed clock
				want.Status, want.Auction = market.Unsettled, rec.Number
			}
		case res.IsWinner(i):
			want.Status, want.Auction = market.Won, rec.Number
			want.Bundle, want.Payment = res.ChosenBundle[i], res.Payments[i]
			r.post(rec.Number, want.Team, -want.Payment,
				fmt.Sprintf("order %d settlement", id), fmt.Sprintf("counterparty for order %d", id))
		default:
			want.Status, want.Auction = market.Lost, rec.Number
		}
		r.sameOrder(id, want)
		if want.Status != market.Open {
			delete(r.open, id)
		}
		if want.Status == market.Won && r.rng.Intn(3) == 0 {
			if _, err := e.PlaceOrder(id); err != nil {
				t.Fatalf("place %d: %v", id, err)
			}
		}
	}
}

// money disburses a random budget across the teams. Ledger memos that
// read like settlement's own are the checked-in fixture's (fixture_test.go).
func (r *seamRun) money() {
	auction, amount := r.e.AuctionCount(), float64(30*(1+r.rng.Intn(3)))
	if err := r.e.Disburse(amount); err != nil {
		r.t.Fatal(err)
	}
	for _, team := range r.teams { // sorted, as Teams() is
		r.post(auction, team, amount/float64(len(r.teams)),
			"budget disbursement (equal-shares)", "budget disbursement to "+team)
	}
}

// check holds the three read paths to each other and the ledger to the
// bytes the slice of entries marshalled to.
func (r *seamRun) check() {
	t, e := r.t, r.e
	all := e.Orders()
	if tail := e.OrdersTail(len(all) + 3); !reflect.DeepEqual(tail, all) {
		t.Fatalf("OrdersTail(all) differs from Orders()")
	}
	if n := min(7, len(all)); !reflect.DeepEqual(e.OrdersTail(n), all[len(all)-n:]) {
		t.Fatalf("OrdersTail(%d) is not the tail of Orders()", n)
	}
	for i, o := range all {
		if o.ID != i {
			t.Fatalf("Orders()[%d] has id %d", i, o.ID)
		}
		one, err := e.Order(o.ID)
		if err != nil || !reflect.DeepEqual(one, o) {
			t.Fatalf("Order(%d) = %+v, %v; Orders() says %+v", o.ID, one, err, o)
		}
	}
	got, _ := json.Marshal(e.Ledger())
	want, _ := json.Marshal(r.ledger)
	if string(got) != string(want) {
		t.Fatalf("the ledger marshals to different bytes than the entries it replaced:\n got: %s\nwant: %s", got, want)
	}
	m := e.Metrics()
	if m.LiveOrders != len(r.open) || m.LiveOrders+m.ArchivedOrders != len(all) || m.LedgerEntries != len(r.ledger) {
		t.Fatalf("gauges %d live, %d archived, %d ledger entries; the model says %d open of %d orders, %d entries",
			m.LiveOrders, m.ArchivedOrders, m.LedgerEntries, len(r.open), len(all), len(r.ledger))
	}
}

// TestArchiveViewDifferential runs the seeded script on a converging
// market and on one whose every clock fails (MaxRounds 1, so orders end
// Unsettled), snapshots in the middle, and requires the live book, the
// book replayed from the whole WAL and the book restored from the
// mid-run snapshot plus the tail to be the same book.
func TestArchiveViewDifferential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxRounds int
	}{{"converging", 4000}, {"no clock converges", 1}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", tc.name, seed), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "wal")
				j, _, err := journal.Open(dir, journal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := market.Config{InitialBudget: 1e6, MaxRounds: tc.maxRounds, Journal: j, SnapshotEvery: -1}
				e, err := market.NewExchange(recoverFleet(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := &seamRun{t: t, rng: rand.New(rand.NewSource(seed)), e: e, cfg: cfg,
					open: make(map[int]bool), teams: []string{"ads", "maps", "search"}}
				for _, team := range r.teams {
					if err := e.OpenAccount(team); err != nil {
						t.Fatal(err)
					}
				}
				var head [][]byte // the WAL the mid-run snapshot rotates away
				const rounds = 10
				for round := 0; round < rounds; round++ {
					for k := 0; k < 12; k++ {
						switch r.rng.Intn(8) {
						case 0:
							r.cancel()
						case 1:
							r.money()
						default:
							r.submit()
						}
					}
					r.auction(round%3 == 2)
					r.check()
					if round == rounds/2 {
						head = walRecords(t, dir)
						if err := e.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if vs := invariant.CheckExchange(e); len(vs) > 0 && tc.maxRounds > 1 {
					t.Fatalf("live exchange violates invariants: %v", vs)
				}
				// The run must have reached every way out of the book, with
				// a bid wider than a row chunk among the archived.
				byStatus, wide := make(map[market.OrderStatus]int), 0
				for _, o := range e.Orders() {
					byStatus[o.Status]++
					if o.Status != market.Open && o.Bid.NumBundles() == 900 {
						wide++
					}
				}
				t.Logf("orders by status %v, %d wide bids archived, %d ledger entries", byStatus, wide, len(r.ledger))
				for _, st := range []market.OrderStatus{market.Won, market.Lost, market.Cancelled, market.Unsettled} {
					if converges := tc.maxRounds > 1; byStatus[st] == 0 && converges == (st != market.Unsettled) {
						t.Errorf("no order ended %s: the run does not cover that transition", st)
					}
				}
				if wide == 0 {
					t.Errorf("no bid wider than a row chunk was archived")
				}
				live := seamImage(t, e)
				j.Crash()

				j2, rec, err := journal.Open(dir, journal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer j2.Close()
				if rec.SnapshotSeq == 0 || len(rec.Records) == 0 {
					t.Fatalf("recovery holds snapshot seq %d and %d records; want both", rec.SnapshotSeq, len(rec.Records))
				}
				cfg.Journal = nil
				fromSnapshot, err := market.Recover(recoverFleet(t), cfg, rec)
				if err != nil {
					t.Fatalf("recover from snapshot: %v", err)
				}
				fromWAL, err := market.Recover(recoverFleet(t), cfg, &journal.Recovery{Records: append(head, rec.Records...)})
				if err != nil {
					t.Fatalf("replay the whole WAL: %v", err)
				}
				for who, rec := range map[string]*market.Exchange{"WAL replay": fromWAL, "snapshot + tail": fromSnapshot} {
					if got := seamImage(t, rec); !reflect.DeepEqual(live, got) {
						for k := range live {
							if !reflect.DeepEqual(live[k], got[k]) {
								t.Errorf("%s: %s diverged:\n live: %+v\n recovered: %+v", who, k, live[k], got[k])
							}
						}
					}
				}
				// Replay goes through the live path's appliers in the live
				// path's order: the archive is the same, chunk for chunk.
				if a, b := e.Metrics(), fromWAL.Metrics(); a.ArchiveBytes != b.ArchiveBytes || a.ArchivedOrders != b.ArchivedOrders {
					t.Errorf("replayed archive holds %d orders in %d bytes, live %d in %d",
						b.ArchivedOrders, b.ArchiveBytes, a.ArchivedOrders, a.ArchiveBytes)
				}
			})
		}
	}
}

// seamImage is marketImage without the quota grants a seller has brought
// back to zero: a snapshot does not carry an empty grant, the live ledger
// keeps the row.
func seamImage(t *testing.T, e *market.Exchange) map[string]any {
	img := marketImage(t, e)
	var held []cluster.GrantRow
	for _, g := range img["quotaTeams"].([]cluster.GrantRow) {
		if !g.Quota.IsZero() {
			held = append(held, g)
		}
	}
	img["quotaTeams"] = held
	return img
}

// walRecords reads the records of a live journal's WAL file through a
// second journal opened on a copy.
func walRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	if err := os.WriteFile(filepath.Join(cp, "wal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec, err := journal.Open(cp, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return rec.Records
}

// TestRestoreRejectsCorruptImage doctors a real image the ways bytes from
// disk can lie about what the archive holds. Each must be answered with
// ErrCorruptSnapshot naming the order, never with a ghost no auction
// claims and no reader can explain, or a ledger out of step with itself.
func TestRestoreRejectsCorruptImage(t *testing.T) {
	rec := recoveryOf(t, true)
	for _, tc := range []struct {
		name   string
		doctor func(st map[string]any)
	}{
		{"unknown status", func(st map[string]any) { st["orders"].([]any)[1].(map[string]any)["status"] = 7 }},
		{"negative status", func(st map[string]any) { st["orders"].([]any)[1].(map[string]any)["status"] = -2 }},
		{"auction number past the record", func(st map[string]any) { st["orders"].([]any)[0].(map[string]any)["auction"] = 1 << 40 }},
		{"attempt count past the record", func(st map[string]any) { st["orders"].([]any)[0].(map[string]any)["attempts"] = 1 << 40 }},
		{"a bid narrower than the registry", func(st map[string]any) {
			st["orders"].([]any)[0].(map[string]any)["bid"].(map[string]any)["Bundles"] = []any{[]any{1}}
		}},
		{"an auction record without prices", func(st map[string]any) { st["history"].([]any)[0].(map[string]any)["Prices"] = nil }},
		{"ledger sequence out of step", func(st map[string]any) { st["ledger"].([]any)[2].(map[string]any)["Seq"] = 9 }},
		{"ledger auction past the record", func(st map[string]any) { st["ledger"].([]any)[0].(map[string]any)["Auction"] = 1 << 40 }},
		{"a commitment without an account", func(st map[string]any) { st["open_buy"] = map[string]any{"ghost": 5} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := jsonObject(t, rec.Snapshot)
			tc.doctor(st)
			bad := *rec
			bad.Snapshot = jsonBytes(t, st)
			_, err := market.Recover(recoverFleet(t), marketCfg(nil, -1), &bad)
			if !errors.Is(err, market.ErrCorruptSnapshot) {
				t.Fatalf("Recover = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// createHookFS lets a test act at — or fail — a file creation.
type createHookFS struct {
	journal.FS
	onCreate func(name string) error
}

func (f createHookFS) Create(name string) (journal.File, error) {
	if err := f.onCreate(name); err != nil {
		return nil, err
	}
	return f.FS.Create(name)
}

// TestSnapshotKeepsSubmitJournaledAfterTheImage is the regression test
// for the snapshot cut. snapshotLocked builds the image under every
// stripe lock and releases them before the journal writes it; a submit
// journaled in between is acknowledged, is not in the image, and sat
// below the stamp the journal used to take on its own when it finally
// wrote — rotated out of the WAL, gone at recovery. The hook fails the
// snapshot file's creation until a submit has been acknowledged, so the
// write that succeeds is always of an image older than the journal's
// tail: the order must be there after recovery all the same.
func TestSnapshotKeepsSubmitJournaledAfterTheImage(t *testing.T) {
	for try := 0; try < 10; try++ {
		if raceSubmitIntoSnapshot(t) {
			return
		}
	}
	t.Fatal("the submit never landed inside the snapshot's retry window")
}

// raceSubmitIntoSnapshot reports false when the submitter was too slow for
// the snapshot's whole retry budget, which decides nothing.
func raceSubmitIntoSnapshot(t *testing.T) bool {
	dir := filepath.Join(t.TempDir(), "wal")
	var acked atomic.Bool
	failed := make(chan struct{})
	var once sync.Once
	fs := createHookFS{FS: journal.OSFS(), onCreate: func(name string) error {
		if filepath.Base(name) != "snapshot.json.tmp" || acked.Load() {
			return nil
		}
		once.Do(func() { close(failed) })
		return errors.New("injected: snapshot file not creatable yet")
	}}
	j, _, err := journal.Open(dir, journal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	e, err := market.NewExchange(recoverFleet(t), marketCfg(j, -1))
	if err != nil {
		t.Fatal(err)
	}
	driveMarket(t, e)
	late := make(chan int, 1)
	go func() {
		<-failed // the image is built, its locks released, its first write refused
		id, err := e.SubmitProduct("ads", "batch-compute", 1, []string{"beta"}, 123)
		if err != nil {
			t.Error(err)
		}
		late <- id
		acked.Store(true)
	}()
	err = e.Snapshot()
	id := <-late
	if err != nil || id < 0 {
		j.Close()
		return false
	}
	want := marketImage(t, e)
	j.Crash()

	j2, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.SnapshotSeq == 0 || len(rec.Records) != 1 {
		t.Errorf("recovery holds snapshot seq %d and %d records past it; the late submit is one", rec.SnapshotSeq, len(rec.Records))
	}
	recovered, err := market.Recover(recoverFleet(t), marketCfg(j2, -1), rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := recovered.Order(id); err != nil {
		t.Fatalf("acknowledged order %d is gone after recovery: %v", id, err)
	}
	if got := marketImage(t, recovered); !reflect.DeepEqual(want, got) {
		t.Errorf("recovered book differs from the live one")
	}
	return true
}

// TestSubmitRacesSnapshot is the same contract under load, for the race
// detector: submitters against a loop of snapshots, every acknowledged
// order present after recovery.
func TestSubmitRacesSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := market.NewExchange(recoverFleet(t), market.Config{InitialBudget: 1e9, Journal: j, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	teams := []string{"ads", "maps", "search"}
	for _, team := range teams {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	acked := make([][]int, len(teams))
	for g, team := range teams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				id, err := e.SubmitProduct(team, "batch-compute", 1, []string{"alpha", "beta"}, float64(5+i%50))
				if err != nil {
					t.Error(err)
					return
				}
				acked[g] = append(acked[g], id)
				if i%7 == 0 {
					_ = e.Cancel(id)
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := e.Snapshot(); err != nil {
			t.Error(err)
		}
		if i%10 == 9 {
			if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, market.ErrNoOpenOrders) {
				t.Error(err)
			}
		}
	}
	wg.Wait()
	want := marketImage(t, e)
	j.Crash()

	j2, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recovered, err := market.Recover(recoverFleet(t), market.Config{InitialBudget: 1e9, Journal: j2, SnapshotEvery: -1}, rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, ids := range acked {
		for _, id := range ids {
			if _, err := recovered.Order(id); err != nil {
				t.Fatalf("acknowledged order %d is gone after recovery: %v", id, err)
			}
		}
	}
	invariant.RequireExchange(t, "recovered", recovered)
	if got := marketImage(t, recovered); !reflect.DeepEqual(want, got) {
		t.Errorf("recovered book differs from the live one")
	}
}

// TestArchiveBytesPerOrder is the archive's retention budget, read off the
// gauge an operator watches — Metrics().ArchiveBytes / ArchivedOrders: an
// order's record, its run and its share of the chunks' slack — over 2 048
// orders of one shape, 256 a stripe. The planet's 4-cluster product order
// is a 48-byte record and a 42-byte run: within 100 bytes, slot included.
func TestArchiveBytesPerOrder(t *testing.T) {
	const orders = 2048
	f := cluster.NewFleet()
	for c := 0; c < 13; c++ {
		cl := cluster.New(fmt.Sprintf("p%d", c), nil)
		cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(cl); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		budget int // bytes an order, slot included
		submit func(e *market.Exchange, k int) (int, error)
	}{
		{"planet 4-cluster product order", 100, func(e *market.Exchange, k int) (int, error) {
			window := []string{fmt.Sprintf("p%d", k%12), fmt.Sprintf("p%d", (k+1)%12), fmt.Sprintf("p%d", (k+2)%12), fmt.Sprintf("p%d", (k+3)%12)}
			return e.SubmitProduct("team", "batch-compute", 1, window, float64(5+k%60))
		}},
		{"1-cluster federation leg", 88, func(e *market.Exchange, k int) (int, error) {
			return e.SubmitProduct("team", "batch-compute", 1, []string{fmt.Sprintf("p%d", k%12)}, float64(5+k%60))
		}},
		{"vector-π seller", 100, func(e *market.Exchange, k int) (int, error) {
			reg := e.Registry()
			offer := func(c int) resource.Vector {
				v := reg.Zero()
				v[mustIndex(reg, resource.Pool{Cluster: fmt.Sprintf("p%d", c), Dim: resource.CPU})] = -8
				v[mustIndex(reg, resource.Pool{Cluster: fmt.Sprintf("p%d", c), Dim: resource.RAM})] = -32
				return v
			}
			return e.Submit("team", &core.Bid{Bundles: []resource.Vector{offer(k % 12), offer((k + 5) % 12)},
				BundleLimits: []float64{-float64(1 + k%9), -float64(2 + k%7)}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.OpenAccount("team"); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < orders; k++ {
				id, err := tc.submit(e, k)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
			m := e.Metrics()
			if m.ArchivedOrders != orders {
				t.Fatalf("%d orders archived, want %d", m.ArchivedOrders, orders)
			}
			kept := m.ArchiveBytes/m.ArchivedOrders + 4 // and the order's slot
			t.Logf("%d archive bytes for %d orders: %d B an order, slot included", m.ArchiveBytes, m.ArchivedOrders, kept)
			if kept > tc.budget {
				t.Errorf("an archived order keeps %d bytes, budget %d", kept, tc.budget)
			}
		})
	}
}

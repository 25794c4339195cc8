package market

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/resource"
)

// TestShardedSerialIDsSequential pins the sharded book's compatibility
// contract: serial traffic sees exactly the unsharded behavior — IDs
// assigned 0, 1, 2, … in submission order, Orders() in that order, and
// O(1) lookup by ID across stripes. Every kind of refused submit sits
// between the booked ones: a refusal must not advance the stripe
// rotation, which is what the budget pre-check outside the order stripe
// is for.
func TestShardedSerialIDsSequential(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	nan := e.Registry().Zero()
	nan[0] = math.NaN()
	refusals := []struct {
		name   string
		submit func() error
	}{
		{"unknown account", func() error {
			_, err := e.SubmitProduct("nobody", "batch-compute", 1, []string{"r2"}, 5)
			return err
		}},
		{"over budget", func() error {
			_, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 2e6)
			return err
		}},
		{"NaN component", func() error {
			_, err := e.Submit("a", &core.Bid{Bundles: []resource.Vector{nan}, Limit: 5})
			return err
		}},
		{"unknown cluster", func() error {
			_, err := e.SubmitProduct("a", "batch-compute", 1, []string{"nowhere"}, 5)
			return err
		}},
	}
	const n = 11 // not a multiple of the stripe count
	for i := 0; i < n; i++ {
		id, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("submit %d got ID %d", i, id)
		}
		r := refusals[i%len(refusals)]
		if err := r.submit(); err == nil {
			t.Fatalf("after submit %d: the %s submit was booked", i, r.name)
		}
	}
	orders := e.Orders()
	if len(orders) != n {
		t.Fatalf("Orders() len = %d", len(orders))
	}
	for i, o := range orders {
		if o.ID != i {
			t.Fatalf("Orders()[%d].ID = %d", i, o.ID)
		}
	}
	for i := 0; i < n; i++ {
		o, err := e.Order(i)
		if err != nil || o.ID != i {
			t.Fatalf("Order(%d) = %+v, %v", i, o, err)
		}
	}
	if _, err := e.Order(n); err == nil {
		t.Error("lookup past the book succeeded")
	}
	if _, err := e.Order(-1); err == nil {
		t.Error("negative ID lookup succeeded")
	}
	if got := e.OpenOrderCount(); got != n {
		t.Fatalf("OpenOrderCount = %d, want %d", got, n)
	}
	// Cancel one order per stripe; the counters must track exactly.
	for i := 0; i < 4; i++ {
		if err := e.Cancel(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.OpenOrderCount(); got != n-4 {
		t.Fatalf("OpenOrderCount after cancels = %d, want %d", got, n-4)
	}
	if got := len(e.OpenOrders()); got != n-4 {
		t.Fatalf("OpenOrders after cancels = %d, want %d", got, n-4)
	}
}

// TestSubmitRecheckRefusesDrainedBudget: a submit that passed its budget
// pre-check is refused when another order drains the account before it
// holds its order stripe. The test holds that stripe so the drain lands
// in the gap every time.
func TestSubmitRecheckRefusesDrainedBudget(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	seq := e.submitSeq.Load()
	os := &e.orderShards[int(seq)%len(e.orderShards)]
	os.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 60)
		done <- err
	}()
	for e.submitSeq.Load() == seq { // past its pre-check, waiting on os
		runtime.Gosched()
	}
	if _, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 60); err != nil {
		t.Fatalf("draining submit: %v", err)
	}
	os.mu.Unlock()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "exceeds available budget") {
		t.Fatalf("submit after the drain = %v, want a budget refusal", err)
	}
	if got := len(e.OpenOrders()); got != 1 {
		t.Fatalf("%d open orders, want only the draining one", got)
	}
}

// TestTailAccessors pins the bounded read paths: OrdersTail and
// HistoryTail return the most recent entries in order, and degenerate
// limits behave.
func TestTailAccessors(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 5); err != nil {
			t.Fatal(err)
		}
	}
	tail := e.OrdersTail(3)
	if len(tail) != 3 || tail[0].ID != 7 || tail[1].ID != 8 || tail[2].ID != 9 {
		ids := make([]int, len(tail))
		for i, o := range tail {
			ids[i] = o.ID
		}
		t.Fatalf("OrdersTail(3) IDs = %v, want [7 8 9]", ids)
	}
	if got := e.OrdersTail(100); len(got) != 10 {
		t.Fatalf("OrdersTail(100) len = %d", len(got))
	}
	if e.OrdersTail(0) != nil || e.OrdersTail(-1) != nil {
		t.Error("non-positive OrdersTail limit returned entries")
	}

	for i := 0; i < 3; i++ {
		if _, _, err := e.RunAuction(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.HistoryTail(2); len(got) != 2 || got[0].Number != 2 || got[1].Number != 3 {
		t.Fatalf("HistoryTail(2) = %+v", got)
	}
	if e.HistoryTail(0) != nil {
		t.Error("non-positive tail limit returned entries")
	}
}

// TestShardsDefaultApplied pins the stripe count. It is part of the WAL's
// contract — replay books order k at stripe k mod shardCount — and the
// checked-in parent journal was written under eight, so a change here is
// a change of the on-disk format, not a tuning knob.
func TestShardsDefaultApplied(t *testing.T) {
	e := newTestExchange(t)
	if len(e.orderShards) != 8 || len(e.accountShards) != 8 {
		t.Fatalf("stripes = %d orders, %d accounts, want 8 and 8", len(e.orderShards), len(e.accountShards))
	}
}

// TestOrdersSortedAcrossShards pins the cross-stripe merge: a book spread
// over many stripes still reads back in global ID order after a mix of
// settlements and new submissions.
func TestOrdersSortedAcrossShards(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.OpenAccount(fmt.Sprintf("team%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 7; i++ {
			team := fmt.Sprintf("team%d", i%3)
			if _, err := e.SubmitProduct(team, "batch-compute", 1, []string{"r2"}, 5); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := e.RunAuction(); err != nil {
			t.Fatal(err)
		}
	}
	prev := -1
	for _, o := range e.Orders() {
		if o.ID <= prev {
			t.Fatalf("Orders() out of ID order: %d after %d", o.ID, prev)
		}
		prev = o.ID
	}
}

// TestBookArchiveIsPointerFree walks what a terminal order and a ledger
// entry are kept as — TestRouterTableIsPointerFree's twin. The collector
// skips a chunk only while its element holds nothing it must follow, so a
// later field may not quietly bring the marking back.
func TestBookArchiveIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: the collector would scan every record", path, ty.Kind())
		}
	}
	walk("orderRec", reflect.TypeOf(orderRec{}))
	walk("ledgerRec", reflect.TypeOf(ledgerRec{}))
	walk("slot", reflect.TypeOf(orderShard{}.slots).Elem())
	rows, _ := reflect.TypeOf(orderShard{}).FieldByName("rows")
	chunks, _ := rows.Type.FieldByName("chunks")
	walk("rowRun", chunks.Type.Elem().Elem())
	if got := reflect.TypeOf(orderRec{}).Size(); got > 48 {
		t.Errorf("orderRec is %d bytes, was 48", got)
	}
	if got := reflect.TypeOf(ledgerRec{}).Size(); got > 24 {
		t.Errorf("ledgerRec is %d bytes, was 24", got)
	}
}

// unevenBook books ten orders on the first four stripes, of lengths 5, 2,
// 0 and 3 — IDs 0 8 16 24 32 | 1 9 | - | 3 11 19 — and cancels 8 and 19.
func unevenBook(t *testing.T) *Exchange {
	t.Helper()
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	for _, id := range []int{0, 1, 3, 8, 9, 11, 16, 19, 24, 32} {
		v := reg.Zero()
		v[mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 1
		ev := &Event{Kind: EvOrderSubmitted, OrderID: id, Team: "a",
			Bid: &core.Bid{User: "a/x", Bundles: []resource.Vector{v}, Limit: float64(1 + id)}}
		if err := e.applyEvent(ev); err != nil {
			t.Fatalf("book %d: %v", id, err)
		}
	}
	for _, id := range []int{8, 19} {
		if err := e.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestOrdersTailUnevenStripes holds OrdersTail to the tail of Orders()
// on a book whose stripes have different lengths — the shape a replayed
// journal or a rejected submit's consumed slot leaves — so booked IDs
// have gaps: every limit from 1 to past the book's size, with open and
// archived orders mixed.
func TestOrdersTailUnevenStripes(t *testing.T) {
	e := unevenBook(t)
	all := e.Orders()
	if len(all) != 10 {
		t.Fatalf("Orders() has %d orders, want 10", len(all))
	}
	for limit := 1; limit <= len(all)+3; limit++ {
		want := all[max(0, len(all)-limit):]
		if got := e.OrdersTail(limit); !reflect.DeepEqual(got, want) {
			ids := func(os []*Order) (out []int) {
				for _, o := range os {
					out = append(out, o.ID)
				}
				return out
			}
			t.Fatalf("OrdersTail(%d) = %v, want %v", limit, ids(got), ids(want))
		}
	}
}

// TestOrderRowsMatchOrdersTail holds AppendOrderRows to the snapshots
// OrdersTail takes, field for field and MaxLimit bit for bit, on random
// books: open, won, lost and cancelled orders, vector-π bids, the stripe
// slot a submit rejected under the stripe lock consumes, and limits 0, 1,
// around every multiple of the stripe count, and past the book.
func TestOrderRowsMatchOrdersTail(t *testing.T) {
	seen := make(map[OrderStatus]int)
	vectors := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		teams := []string{"a", "b"}
		for _, team := range teams {
			if err := e.OpenAccount(team); err != nil {
				t.Fatal(err)
			}
		}
		reg := e.Registry()
		cpu := func(cl string) int { return mustIndex(reg, resource.Pool{Cluster: cl, Dim: resource.CPU}) }
		price := func() float64 { return float64(1+rng.Intn(90)) + 0.25*float64(rng.Intn(4)) }
		for round := 0; round < 4; round++ {
			for k := 0; k < 8+rng.Intn(24); k++ {
				team := teams[rng.Intn(len(teams))]
				var err error
				switch rng.Intn(6) {
				case 0:
					v1, v2 := reg.Zero(), reg.Zero()
					v1[cpu("r1")], v2[cpu("r2")] = float64(1+rng.Intn(3)), float64(1+rng.Intn(3))
					_, err = e.Submit(team, &core.Bid{Bundles: []resource.Vector{v1, v2}, BundleLimits: []float64{price(), price()}})
					vectors++
				case 1:
					e.submitSeq.Add(1)
				default:
					clusters := [][]string{{"r1"}, {"r2"}, {"r1", "r2"}}[rng.Intn(3)]
					_, err = e.SubmitProduct(team, "batch-compute", float64(1+rng.Intn(3)), clusters, price())
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, o := range e.OpenOrders() {
				if rng.Intn(5) == 0 {
					if err := e.Cancel(o.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
			if round < 3 {
				if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, core.ErrNoConvergence) {
					t.Fatal(err)
				}
			}
		}
		all := e.Orders()
		for _, o := range all {
			seen[o.Status]++
		}
		limits := []int{-1, 0, 1, len(all) - 1, len(all), len(all) + 1, len(all) + 50}
		for m := shardCount; m <= len(all)+shardCount; m += shardCount {
			limits = append(limits, m-1, m, m+1)
		}
		head := OrderRow{ID: -7, Team: "kept"}
		for _, limit := range limits {
			want := e.OrdersTail(limit)
			got := e.AppendOrderRows([]OrderRow{head}, limit)
			if len(got) != 1+len(want) || got[0] != head {
				t.Fatalf("seed %d limit %d: %d rows after the kept one, OrdersTail has %d", seed, limit, len(got)-1, len(want))
			}
			for i, o := range want {
				w := OrderRow{ID: o.ID, Team: o.Team, User: o.Bid.User, Status: o.Status, Auction: o.Auction,
					Payment: o.Payment, MaxLimit: o.Bid.MaxLimit()}
				g := got[1+i]
				if g.ID != w.ID || g.Team != w.Team || g.User != w.User || g.Status != w.Status || g.Auction != w.Auction ||
					math.Float64bits(g.Payment) != math.Float64bits(w.Payment) || math.Float64bits(g.MaxLimit) != math.Float64bits(w.MaxLimit) {
					t.Fatalf("seed %d limit %d row %d:\n got %+v\nwant %+v", seed, limit, i, g, w)
				}
			}
		}
	}
	for _, st := range []OrderStatus{Open, Won, Lost, Cancelled} {
		if seen[st] == 0 {
			t.Errorf("no order ended %s: the books do not cover that state", st)
		}
	}
	if vectors == 0 {
		t.Error("no vector-π bid was booked")
	}
}

// requireClaimInIDOrder holds the stripe merge behind OpenOrders,
// assemble and claimBatch to the sort it replaced: every open order of
// every claim list, sorted by ID, is the batch each of them returns, in
// that order, and the clock's bids are those orders' bids.
func requireClaimInIDOrder(t *testing.T, who string, e *Exchange) {
	t.Helper()
	var want []*Order
	for s := range e.orderShards {
		for _, o := range e.orderShards[s].open {
			if o.Status == Open {
				want = append(want, o)
			}
		}
	}
	slices.SortFunc(want, func(a, b *Order) int { return cmp.Compare(a.ID, b.ID) })
	if len(want) < 2 {
		t.Fatalf("%s: %d open orders: nothing to merge", who, len(want))
	}
	ids := func(os []*Order) (out []int) {
		for _, o := range os {
			out = append(out, o.ID)
		}
		return out
	}
	sameBids := func(path string, bids []*core.Bid) {
		t.Helper()
		if len(bids) < len(want) {
			t.Fatalf("%s: %s built %d bids for %d open orders", who, path, len(bids), len(want))
		}
		for i, o := range want {
			if bids[i] != o.Bid {
				t.Fatalf("%s: %s's bid %d is not order %d's", who, path, i, o.ID)
			}
		}
	}
	if got := e.OpenOrders(); !slices.Equal(ids(got), ids(want)) {
		t.Fatalf("%s: OpenOrders = %v, sorted %v", who, ids(got), ids(want))
	}
	bids, err := e.assemble()
	if err != nil {
		t.Fatal(err)
	}
	sameBids("assemble", bids)
	bids, batch, err := e.claimBatch()
	if err != nil {
		t.Fatal(err)
	}
	e.releaseBatch(batch)
	if !slices.Equal(batch, want) {
		t.Fatalf("%s: claimBatch = %v, sorted %v", who, ids(batch), ids(want))
	}
	sameBids("claimBatch", bids)
}

// TestClaimMergeMatchesSort runs requireClaimInIDOrder over the books the
// merge has to get right: stripes of uneven length with holes in the IDs
// (a replayed journal's shape), cancelled orders still in the claim lists,
// a failed clock's batch carried into the next claim beside newer orders,
// and the same book recovered from its journal.
func TestClaimMergeMatchesSort(t *testing.T) {
	t.Run("holes", func(t *testing.T) { requireClaimInIDOrder(t, "holes", unevenBook(t)) })

	t.Run("carried and recovered", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "wal")
		j, _, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{InitialBudget: 1e15, MaxRounds: 100, SnapshotEvery: -1}
		cfg.Journal = j
		e, err := NewExchange(testFleet(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, team := range []string{"a", "t1", "t2"} {
			if err := e.OpenAccount(team); err != nil {
				t.Fatal(err)
			}
		}
		product := func(k int) {
			t.Helper()
			if _, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2", "r1"}[:1+k%2], float64(5+k)); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 11; k++ {
			product(k)
		}
		// Two opposed traders: no clock over this book converges.
		reg := e.Registry()
		for _, tr := range [][3]string{{"t1", "r1", "r2"}, {"t2", "r2", "r1"}} {
			v := reg.Zero()
			v[mustIndex(reg, resource.Pool{Cluster: tr[1], Dim: resource.CPU})] = 2000
			v[mustIndex(reg, resource.Pool{Cluster: tr[2], Dim: resource.CPU})] = -1000
			if _, err := e.Submit(tr[0], &core.Bid{Bundles: []resource.Vector{v}, Limit: 1e12}); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{2, 7} {
			if err := e.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		requireClaimInIDOrder(t, "13 orders, 2 cancelled", e)

		if _, _, err := e.RunAuction(); !errors.Is(err, core.ErrNoConvergence) {
			t.Fatalf("RunAuction = %v, want ErrNoConvergence", err)
		}
		for k := 11; k < 17; k++ {
			product(k)
		}
		for _, id := range []int{3, 14} {
			if err := e.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		if o, _ := e.Order(0); o.Attempts != 1 {
			t.Fatalf("order 0 has %d attempts; the failed clock's batch should carry one", o.Attempts)
		}
		requireClaimInIDOrder(t, "a failed clock's batch and newer orders", e)

		j.Crash()
		j2, rec, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		cfg.Journal = nil
		recovered, err := Recover(testFleet(t), cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		requireClaimInIDOrder(t, "recovered", recovered)
	})
}

// mustIndex is reg's index of pool p, which the test registered.
func mustIndex(reg *resource.Registry, p resource.Pool) int {
	i, ok := reg.Index(p)
	if !ok {
		panic(fmt.Sprintf("pool %v not registered", p))
	}
	return i
}

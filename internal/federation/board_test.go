package federation

import (
	"encoding/json"
	"errors"
	"maps"
	"reflect"
	"sync"
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// boardTicks is what a test expects of the board: the gossip clock and
// the tick each quoted region's quote was taken at.
type boardTicks struct {
	tick   int
	quotes map[string]int
}

// requireBoard checks that the board a router reads — one atomic load —
// is the one Board and GossipTick report, and that it is the board the
// test expects.
func requireBoard(t *testing.T, step string, f *Federation, want boardTicks) {
	t.Helper()
	b := f.board.Load()
	if b.tick != f.GossipTick() || !reflect.DeepEqual(b.sorted(), f.Board()) {
		t.Fatalf("%s: published board (tick %d) %+v, Board() (tick %d) %+v", step, b.tick, b.sorted(), f.GossipTick(), f.Board())
	}
	got := boardTicks{tick: b.tick, quotes: map[string]int{}}
	for ri, q := range b.quotes {
		if q.Region == "" {
			continue
		}
		if q.Region != f.regions[ri].name {
			t.Fatalf("%s: region %d's slot holds %q's quote", step, ri, q.Region)
		}
		got.quotes[q.Region] = q.Tick
	}
	if got.tick != want.tick || !maps.Equal(got.quotes, want.quotes) {
		t.Fatalf("%s: board at tick %d quoting %v, want tick %d quoting %v", step, got.tick, got.quotes, want.tick, want.quotes)
	}
}

// recoverRouter restores a fresh federation of the same topology from the
// router journal in dir, reopening the journal for further writes.
func recoverRouter(t *testing.T, dir string) (*Federation, *journal.Journal, *journal.Recovery) {
	t.Helper()
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := hotCold(t)
	if err := g.Restore(rec); err != nil {
		t.Fatal(err)
	}
	return g, j, rec
}

// TestPublishedBoardIsTheBoard walks every path that changes the price
// board or the gossip clock — a gossip pass, a settlement that quotes its
// region, a settlement whose gossip is lost, a router's first quote of a
// region, WAL replay and a snapshot's restore — and checks after each that
// the published board is the board.
func TestPublishedBoardIsTheBoard(t *testing.T) {
	dir := t.TempDir()
	f := hotCold(t)
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.AttachJournal(j, 0)
	inj := fault.New()
	f.AttachFaults(inj)
	requireBoard(t, "new", f, boardTicks{0, map[string]int{}})

	f.Gossip()
	requireBoard(t, "Gossip", f, boardTicks{1, map[string]int{"hot": 1, "cold": 1}})
	if _, err := f.SettleRegion("cold"); !errors.Is(err, market.ErrNoOpenOrders) {
		t.Fatalf("settling an empty book: %v", err)
	}
	requireBoard(t, "SettleRegion", f, boardTicks{2, map[string]int{"hot": 1, "cold": 2}})
	inj.Arm([]fault.Window{{Op: fault.OpRegionGossip, Scope: "hot", Kind: fault.Unreachable, Count: 1}})
	if _, err := f.SettleRegion("hot"); !errors.Is(err, market.ErrNoOpenOrders) {
		t.Fatalf("settling an empty book: %v", err)
	}
	requireBoard(t, "SettleRegion, gossip lost", f, boardTicks{3, map[string]int{"hot": 1, "cold": 2}})

	// Replay of a WAL with no snapshot.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	g, j, rec := recoverRouter(t, dir)
	if rec.Snapshot != nil || len(rec.Records) == 0 {
		t.Fatalf("recovery holds a snapshot or no records: %+v", rec)
	}
	requireBoard(t, "WAL replay", g, boardTicks{3, map[string]int{"hot": 1, "cold": 2}})

	// A snapshot's restore, then a WAL tail replayed over it.
	f.AttachJournal(j, 0)
	if err := f.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	g, j, rec = recoverRouter(t, dir)
	if rec.Snapshot == nil || len(rec.Records) != 0 {
		t.Fatalf("recovery holds no snapshot or a WAL tail: %d records", len(rec.Records))
	}
	requireBoard(t, "Restore", g, boardTicks{3, map[string]int{"hot": 1, "cold": 2}})
	f.AttachJournal(j, 0)
	f.Gossip()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	g, j, _ = recoverRouter(t, dir)
	defer j.Close()
	requireBoard(t, "Restore and replay", g, boardTicks{4, map[string]int{"hot": 4, "cold": 4}})

	// A router's first quote of a region it routes to.
	h := hotCold(t)
	if _, err := h.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 100); err != nil {
		t.Fatal(err)
	}
	requireBoard(t, "first quote", h, boardTicks{0, map[string]int{"cold": 0}})

	// A quote for a region the federation does not have is refused,
	// replayed or restored, and publishes nothing.
	raw := []byte(`{"k":"fed-gossip","tick":9,"quote":{"Region":"nowhere","Prices":[1],"Tick":9}}`)
	if err := TestingApplyEvent(h, raw); err == nil {
		t.Error("replay accepted a quote for an unknown region")
	}
	requireBoard(t, "refused replay", h, boardTicks{0, map[string]int{"cold": 0}})
	img, err := json.Marshal(fedState{GossipTick: 9, Board: []Quote{{Region: "nowhere", Tick: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := hotCold(t).Restore(&journal.Recovery{SnapshotSeq: 3, Snapshot: img}); err == nil {
		t.Error("restore accepted a quote for an unknown region")
	}
}

// TestBoardUnderConcurrentRouting runs submits against gossip passes and
// settlements (run with -race): the router reads the board without f.mu
// while both writers publish it.
func TestBoardUnderConcurrentRouting(t *testing.T) {
	f := hotCold(t)
	xor := []string{"hot-r1", "cold-r1", "cold-r2"}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := f.SubmitProduct("team", "batch-compute", 1, xor, 20); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			f.Gossip()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, r := range []string{"hot", "cold"} {
				if _, err := f.SettleRegion(r); err != nil && !errors.Is(err, market.ErrNoOpenOrders) {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	b := f.board.Load()
	if b.tick != 20+40 || !reflect.DeepEqual(b.sorted(), f.Board()) {
		t.Fatalf("after the race: published tick %d, want 60; board %+v against %+v", b.tick, b.sorted(), f.Board())
	}
	if st := f.Stats(); st.Submitted != 200 {
		t.Fatalf("%d orders routed, want 200", st.Submitted)
	}
}

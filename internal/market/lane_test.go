package market_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// twoLaneFleet is three idle clusters, a, b and c.
func twoLaneFleet(t *testing.T) *cluster.Fleet {
	t.Helper()
	f := cluster.NewFleet()
	for _, name := range []string{"a", "b", "c"} {
		c := cluster.New(name, nil)
		c.AddMachines(4, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := f.AddCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func twoLaneCfg(j *journal.Journal) market.Config {
	return market.Config{InitialBudget: 1e15, MaxRounds: 200, Journal: j}
}

// twoLaneBook books a market of two lanes: a cycling trader pair across
// clusters a and b, which cannot clear within MaxRounds, and two buyers
// on cluster c, which share no pool with it and clear. Of the buyers
// only the one with the higher limit fits c's supply.
func twoLaneBook(t *testing.T, j *journal.Journal) *market.Exchange {
	t.Helper()
	e, err := market.NewExchange(twoLaneFleet(t), twoLaneCfg(j))
	if err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	cpu := func(qty map[string]float64) resource.Vector {
		v := reg.Zero()
		for cl, q := range qty {
			v[mustIndex(reg, resource.Pool{Cluster: cl, Dim: resource.CPU})] = q
		}
		return v
	}
	for _, o := range []struct {
		team  string
		qty   map[string]float64
		limit float64
	}{
		{"t1", map[string]float64{"a": 2000, "b": -1000}, 1e12},
		{"t2", map[string]float64{"b": 2000, "a": -1000}, 1e12},
		{"rich", map[string]float64{"c": 60}, 600},
		{"poor", map[string]float64{"c": 60}, 300},
	} {
		if err := e.OpenAccount(o.team); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(o.team, &core.Bid{Bundles: []resource.Vector{cpu(o.qty)}, Limit: o.limit}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestHeldLaneSettlesTheOthers pins per-lane settlement: a lane that
// runs out of rounds holds only its own orders. The other lane's orders
// settle Won and Lost in the first auction, whose record says
// Converged=false; the held orders retire Unsettled after three held
// auctions; and a journaled run of the same book recovers to the
// identical book.
func TestHeldLaneSettlesTheOthers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, durable := twoLaneBook(t, nil), twoLaneBook(t, j)
	for _, e := range []*market.Exchange{ref, durable} {
		rec, res, err := e.RunAuction()
		if !errors.Is(err, core.ErrNoConvergence) {
			t.Fatalf("err = %v, want ErrNoConvergence", err)
		}
		if rec.Converged || rec.Settled != 1 || res.Clock.Lanes != 2 || res.Clock.Held != 1 {
			t.Fatalf("record %+v, clock %+v: want one of two lanes held and one order won", rec, res.Clock)
		}
		want := map[string]market.OrderStatus{"t1": market.Open, "t2": market.Open, "rich": market.Won, "poor": market.Lost}
		for _, o := range e.Orders() {
			if o.Status != want[o.Team] {
				t.Errorf("%s's order is %s after attempt 1, want %s", o.Team, o.Status, want[o.Team])
			}
		}
		if vs := invariant.CheckSettlementEconomics(e.Orders(), e.History(), invariant.Eps); len(vs) > 0 {
			t.Fatalf("settlement economics: %v", vs)
		}
		for attempt := 2; attempt <= 3; attempt++ {
			if rec, _, err := e.RunAuction(); !errors.Is(err, core.ErrNoConvergence) || rec.Settled != 0 {
				t.Fatalf("attempt %d: err = %v, record %+v", attempt, err, rec)
			}
		}
		for _, o := range e.Orders() {
			if (o.Team == "t1" || o.Team == "t2") && (o.Status != market.Unsettled || o.Attempts != 3) {
				t.Errorf("%s's order is %s after %d attempts, want retired Unsettled after 3", o.Team, o.Status, o.Attempts)
			}
		}
		if vs := invariant.CheckExchange(e); len(vs) > 0 {
			t.Fatalf("kernel: %v", vs)
		}
	}
	j.Crash()
	j2, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recovered, err := market.Recover(twoLaneFleet(t), twoLaneCfg(j2), rec)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := marketImage(t, ref), marketImage(t, recovered); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered book differs:\n in-memory: %+v\n recovered: %+v", want, got)
	}
}

// Conservation tests live in the external test package so they can
// consume the shared invariant kernel (internal/invariant imports
// market; an in-package test would be an import cycle). The kernel —
// not local assertion copies — is the single source of truth for what
// these tests enforce.
package market_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/market"
)

// TestLedgerConservationRandomized drives a randomized multi-epoch market
// and runs the shared invariant kernel after every settlement: balanced
// double-entry ledger (whole and per auction), non-negative balances,
// commitments agreeing with open exposure, per-auction wins within
// capacity, clearing prices at or above reserve, and consistent open
// counters.
func TestLedgerConservationRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fleet := cluster.NewFleet()
	clusters := []string{"c1", "c2", "c3"}
	for i, name := range clusters {
		c := cluster.New(name, nil)
		c.AddMachines(15, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		util := 0.15 + 0.3*float64(i)
		if err := fleet.FillToUtilization(rng, name, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	teams := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, tm := range teams {
		if err := ex.OpenAccount(tm); err != nil {
			t.Fatal(err)
		}
	}
	products := []string{"batch-compute", "serving-frontend", "bigtable-node"}

	for epoch := 0; epoch < 10; epoch++ {
		for i := 0; i < 15; i++ {
			team := teams[rng.Intn(len(teams))]
			n := 1 + rng.Intn(len(clusters))
			var cs []string
			for _, pi := range rng.Perm(len(clusters))[:n] {
				cs = append(cs, clusters[pi])
			}
			qty := 1 + rng.Float64()*2
			limit := 2 + rng.Float64()*150
			if _, err := ex.SubmitProduct(team, products[rng.Intn(len(products))], qty, cs, limit); err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
		}
		if _, _, err := ex.RunAuction(); err != nil && !errors.Is(err, core.ErrNoConvergence) {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		invariant.RequireExchange(t, fmt.Sprintf("epoch %d", epoch), ex)
	}
}

// TestRecheckRefusesOvercommit races two submits of a team funded for
// exactly one of them (run with -race). Each passes the budget pre-check
// before the other commits; they take consecutive stripe slots, so they
// book under different order-stripe locks, and only the re-check nested
// under each — on the account record the pre-check resolved — stands
// between them and an overcommitted account.
func TestRecheckRefusesOvercommit(t *testing.T) {
	fleet := cluster.NewFleet()
	c := cluster.New("c1", nil)
	c.AddMachines(4, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
	if err := fleet.AddCluster(c); err != nil {
		t.Fatal(err)
	}
	const limit = 10
	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: limit})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 1000; round++ {
		var done sync.WaitGroup
		var ready atomic.Int32
		ids := make([]int, 2)
		for k := range ids {
			done.Add(1)
			go func() {
				defer done.Done()
				// Both leave the barrier together: the later arrival at
				// once, the earlier as soon as it sees it.
				for ready.Add(1); ready.Load() < 2; {
					runtime.Gosched()
				}
				var err error
				if ids[k], err = ex.SubmitProduct("team", "batch-compute", 1, []string{"c1"}, limit); err != nil {
					ids[k] = -1
				}
			}()
		}
		done.Wait()
		booked := -1
		for _, id := range ids {
			if id < 0 {
				continue
			}
			if booked >= 0 {
				t.Fatalf("round %d: both submits booked (orders %d and %d) against one order's budget", round, booked, id)
			}
			booked = id
		}
		if booked < 0 {
			t.Fatalf("round %d: neither submit was booked", round)
		}
		scan := map[string]float64{}
		for _, o := range ex.OpenOrders() {
			scan[o.Team] += o.Bid.MaxLimit()
		}
		if got := ex.BuyCommitments(); !maps.Equal(got, scan) {
			t.Fatalf("round %d: commitments %v, a scan of the book says %v", round, got, scan)
		}
		// The kernel reads the whole book, which grows by an order a
		// round; every 50th round keeps the test linear.
		if round%50 == 0 {
			if vs := invariant.CheckExchange(ex); len(vs) > 0 {
				t.Fatalf("round %d: %v", round, vs)
			}
		}
		if err := ex.Cancel(booked); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedPipelineStressConservation hammers the sharded order
// pipeline from every direction at once — submits, cancels, status
// polls, and a continuously settling auctioneer across all stripes (run
// with -race) — then runs the shared invariant kernel once traffic
// quiesces. The kernel's commitments-match-exposure check subsumes the
// old openBuy-drained assertion: after the drain no order is Open, so
// every commitment counter must be exactly zero.
func TestShardedPipelineStressConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fleet := cluster.NewFleet()
	clusters := []string{"s1", "s2", "s3", "s4"}
	for i, name := range clusters {
		c := cluster.New(name, nil)
		c.AddMachines(15, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			t.Fatal(err)
		}
		util := 0.1 + 0.2*float64(i)
		if err := fleet.FillToUtilization(rng, name, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	teams := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for _, tm := range teams {
		if err := ex.OpenAccount(tm); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	auctioneerDone := make(chan struct{})
	go func() {
		defer close(auctioneerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := ex.RunAuction(); err != nil &&
				!errors.Is(err, market.ErrNoOpenOrders) && !errors.Is(err, core.ErrNoConvergence) {
				t.Errorf("RunAuction: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 2*len(teams); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			team := teams[g%len(teams)]
			for i := 0; i < 60; i++ {
				n := 1 + rng.Intn(len(clusters))
				var cs []string
				for _, pi := range rng.Perm(len(clusters))[:n] {
					cs = append(cs, clusters[pi])
				}
				id, err := ex.SubmitProduct(team, "batch-compute", 1+rng.Float64()*2, cs, 2+rng.Float64()*60)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch i % 4 {
				case 0:
					// Cancel may legitimately lose the race with the clock.
					_ = ex.Cancel(id)
				case 1:
					if got, err := ex.Order(id); err != nil || got.ID != id {
						t.Errorf("order poll: %+v, %v", got, err)
						return
					}
				case 2:
					_ = ex.OpenOrderCount()
					if _, err := ex.Balance(team); err != nil {
						t.Errorf("balance: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-auctioneerDone
	// Drain the book so every order reaches a terminal state.
	for i := 0; ex.OpenOrderCount() > 0; i++ {
		if i >= 100 {
			t.Fatal("book did not drain")
		}
		if _, _, err := ex.RunAuction(); err != nil &&
			!errors.Is(err, market.ErrNoOpenOrders) && !errors.Is(err, core.ErrNoConvergence) {
			t.Fatal(err)
		}
	}

	invariant.RequireExchange(t, "after sharded stress", ex)
}

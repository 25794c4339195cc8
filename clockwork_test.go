package clustermarket_test

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

// The clock counts its own work exactly (core.ClockStats), as a pure
// function of the bids, so its layer benchmarks' books carry a ruler that
// wall time on a shared box is not: testdata/clockwork.txt holds each
// book's rounds, counters and allocations a run, and a change to the
// round loop shows up as that file's diff. Rewrite it with
//
//	go test -run TestClockwork . -update
var updateClockwork = flag.Bool("update", false, "rewrite testdata/clockwork.txt from this tree's clock")

const clockworkFile = "testdata/clockwork.txt"

// clockBook is one book of the clock's layer benchmarks, named as the
// benchmark that runs it.
type clockBook struct {
	name  string
	build func(testing.TB) (*resource.Registry, []*core.Bid, core.Config)
}

// clockBooks lists the books of BenchmarkSparsePlanetEngines,
// BenchmarkPartitionedPlanetEngines and BenchmarkCatalogPlanetEngines
// (production sides), BenchmarkSparseEpochClock, BenchmarkPlanetEpochClock, both
// BenchmarkWeldedEpochClock books and every BenchmarkClockScaling point.
func clockBooks() []clockBook {
	planet := func(reg *resource.Registry, bids []*core.Bid) (*resource.Registry, []*core.Bid, core.Config) {
		return reg, bids, planetConfig(reg)
	}
	books := []clockBook{
		{"SparsePlanetEngines/production", func(testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
			return planet(sparsePlanetMarket(9, 2048, 256))
		}},
		{"PartitionedPlanetEngines/production", func(testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
			return planet(sparseRegionalPlanetMarket(9, 2048, 256, 8))
		}},
		{"CatalogPlanetEngines/production", func(tb testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
			clusters, limits := wideOrders()
			reg, bids, _ := wideBids(tb, clusters, nil, limits)
			return planet(reg, bids)
		}},
		{"SparseEpochClock/run", func(tb testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
			return epochBook(tb, wideBook, false)
		}},
	}
	books = append(books, clockBook{"PlanetEpochClock", planetBook})
	for _, n := range []int{4096, 16384} {
		books = append(books, clockBook{fmt.Sprintf("WeldedEpochClock/orders=%d", n), func(tb testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
			return epochBook(tb, n, true)
		}})
	}
	for _, pt := range scalingPoints {
		books = append(books, clockBook{"ClockScaling/" + scalingName(pt), func(testing.TB) (*resource.Registry, []*core.Bid, core.Config) {
			return scalingBook(pt)
		}})
	}
	return books
}

// clockwork runs book with its lanes built and formats the run as
// one line: the rounds, every ClockStats counter, and the objects one Run
// allocates (testing.AllocsPerRun clocks it on one CPU, the serial sweep).
func clockwork(t *testing.T, book clockBook) string {
	reg, bids, cfg := book.build(t)
	a, err := core.NewAuction(reg, bids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Components()
	// A collection that starts mid-run allocates for itself; keep the
	// count the clock's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var res *core.Result
	// The runtime's own work can still land in a counted Run: a collection
	// during the book's build wakes the background scavenger, and the first
	// timer it arms on the one P grows that P's empty timer heap, one
	// 16-byte object. That growth is not repeated, so two Runs are counted:
	// AllocsPerRun truncates their mean, which one stray object cannot
	// move and one more object in every Run does.
	allocs := testing.AllocsPerRun(2, func() { res, _ = a.Run() })
	c := res.Clock
	return fmt.Sprintf("%s rounds=%d lanes=%d lane-rounds=%d held=%d repriced=%d rechosen=%d switched=%d priced=%d dropped=%d rebuilds=%d reused=%d allocs=%.0f",
		book.name, res.Rounds, c.Lanes, c.LaneRounds, c.Held, c.Repriced, c.Rechosen, c.Switched, c.Priced, c.Dropped, c.Rebuilds, c.Reused, allocs)
}

// TestClockwork holds every clock layer benchmark's book to the counts in
// testdata/clockwork.txt.
func TestClockwork(t *testing.T) {
	var got []string
	for _, book := range clockBooks() {
		got = append(got, clockwork(t, book))
	}
	if *updateClockwork {
		head := "# go test -run TestClockwork . -update rewrites this file: one line a clock layer benchmark book.\n"
		if err := os.WriteFile(clockworkFile, []byte(head+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(clockworkFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d books, %s has %d lines", len(got), clockworkFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clockwork moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

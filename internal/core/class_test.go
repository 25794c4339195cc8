package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustermarket/internal/resource"
)

// tieSeeds is where FuzzClockMatchesReference's seeds start drawing
// tieCase markets.
const tieSeeds = 1 << 40

// tieCase draws a market whose demand class meets the surplus-rounding
// tie (incremental.go, the class bullet): two to five buyers of one row
// sequence at limits near 2²⁰, each an XOR of a bundle on pool 0, whose
// price never moves, and one on pool 1, which a rich buyer drives up by
// an exact binary step a round. At round T, a draw, the second bundle
// costs one ulp of its cost less than the first: less than half an ulp
// of the limits apart, so both leave the same surplus and the reference
// keeps the first, dearer bundle where the cheapest is the second. Until
// then the second is the clear choice, and after it the first.
func tieCase(rng *rand.Rand) (*resource.Registry, []*Bid, Config) {
	step := math.Ldexp(1, -1-rng.Intn(3))
	start, T := 1+float64(rng.Intn(4))*step, 3+rng.Intn(8)
	q := math.Nextafter(start+float64(T)*step, math.Inf(1))
	n := 2 + rng.Intn(4)
	bids := []*Bid{
		{User: "op0", Limit: -0.000001, Bundles: []resource.Vector{{-(q*float64(n) + 10), 0}}},
		{User: "op1", Limit: -0.000001, Bundles: []resource.Vector{{0, -float64(1 + rng.Intn(3))}}},
		{User: "rich", Limit: 1e9, Bundles: []resource.Vector{{0, float64(5 + rng.Intn(10))}}},
	}
	for i := 0; i < n; i++ {
		bids = append(bids, &Bid{
			User:    fmt.Sprintf("u%d", i),
			Limit:   float64(1<<20 + rng.Intn(1<<20)),
			Bundles: []resource.Vector{{q, 0}, {0, 1}},
		})
	}
	rng.Shuffle(len(bids), func(i, j int) { bids[i], bids[j] = bids[j], bids[i] })
	return cpuRegistry(2), bids, Config{
		Start:         resource.Vector{1, start},
		Policy:        Capped{Alpha: 0.5, Delta: step, MinStep: step},
		MaxRounds:     T + 2 + rng.Intn(10),
		RecordHistory: true,
	}
}

// TestClassTieFallsBack: on tieCase's markets a class's cheapest bundle
// is not the reference's choice at round T, and the clock agrees with
// ReferenceRun only by re-scoring that class member by member there.
// Each market must hold the tie: at some round the reference keeps
// every class member on its first bundle while the second costs less.
// The seeds are FuzzClockMatchesReference's corpus entries (testdata/fuzz).
func TestClassTieFallsBack(t *testing.T) {
	for seed := int64(tieSeeds); seed < tieSeeds+8; seed++ {
		reg, bids, cfg := tieCase(rand.New(rand.NewSource(seed)))
		res := mustMatchReference(t, fmt.Sprintf("seed %d", seed), reg, bids, cfg)
		q := 0.0 // a member's quantity on pool 0
		for _, b := range bids {
			if strings.HasPrefix(b.User, "u") {
				q = b.Bundles[0][0]
			}
		}
		tied := false
		for _, r := range res.History {
			first, second := r.Prices[0]*q, r.Prices[1]
			tied = tied || second < first && first-second < math.Ldexp(1, -40)
		}
		if !tied {
			t.Errorf("seed %d: no round priced the class's two bundles a hair apart", seed)
		}
	}
}

// TestTieSeedsInFuzzCorpus: TestClassTieFallsBack's markets are in
// FuzzClockMatchesReference's corpus, so the fuzzer starts from them.
func TestTieSeedsInFuzzCorpus(t *testing.T) {
	for seed := int64(tieSeeds); seed < tieSeeds+8; seed++ {
		name := filepath.Join("testdata", "fuzz", "FuzzClockMatchesReference", fmt.Sprintf("tie-%d", seed-tieSeeds))
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("go test fuzz v1\nint64(%d)\nbool(false)\n[]byte(\"\")\n", seed)
		if string(raw) != want {
			t.Errorf("%s holds %q, want %q", name, raw, want)
		}
	}
}

// TestChosenSellerLeavesTheLoop: two one-bundle sellers of one row set
// are chosen at round 0, and a one-bundle seller's cost only falls, so
// they leave the round loop then: no round re-prices or re-chooses them
// while two buyers' class drives their pool up, and the only re-score is
// the class's own, as the poorer buyer is priced out.
func TestChosenSellerLeavesTheLoop(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "op", Limit: -0.000001, Bundles: []resource.Vector{{-5}}},
		{User: "op2", Limit: -0.000001, Bundles: []resource.Vector{{-5}}},
		{User: "x", Limit: 500, Bundles: []resource.Vector{{6}}},
		{User: "y", Limit: 90, Bundles: []resource.Vector{{6}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.05}, RecordHistory: true}
	res := mustMatchReference(t, "chosen sellers", reg, bids, cfg)
	if !res.IsWinner(0) || !res.IsWinner(1) || !res.IsWinner(2) || res.IsWinner(3) || res.Rounds < 20 {
		t.Fatalf("chosen bundles %v after %d rounds; want both sellers and x winning after a climb", res.ChosenBundle, res.Rounds)
	}
	if c := res.Clock; c.Rechosen != 1 || c.Repriced != 1 || c.Switched != 1 {
		t.Errorf("%d re-scored, %d re-priced, %d switched; want the buyers' class once, as y is priced out", c.Rechosen, c.Repriced, c.Switched)
	}
}

// TestUnchosenSellerReenters: a one-bundle seller priced out at the
// reserve price stays in the loop, re-chosen each round its pool moves,
// until the price lifts its receipt over its limit; chosen then, it
// leaves, and is not re-chosen again.
func TestUnchosenSellerReenters(t *testing.T) {
	reg := cpuRegistry(1)
	bids := []*Bid{
		{User: "s", Limit: -50, Bundles: []resource.Vector{{-10}}},
		{User: "b1", Limit: 2000, Bundles: []resource.Vector{{9}}},
		{User: "b2", Limit: 100, Bundles: []resource.Vector{{9}}},
	}
	cfg := Config{Start: resource.Vector{1}, Policy: Capped{Alpha: 1, Delta: 0.5, MinStep: 0.5}, RecordHistory: true}
	res := mustMatchReference(t, "seller re-enters", reg, bids, cfg)
	if !res.IsWinner(0) || res.DropRound[0] != -1 || !res.IsWinner(1) || res.IsWinner(2) {
		t.Fatalf("chosen bundles %v, drop rounds %v; want s back in and winning beside b1", res.ChosenBundle, res.DropRound)
	}
	// The price climbs 0.5 a round from 1, so s's receipt reaches its
	// limit at round 8, at price 5: s is re-chosen at rounds 1 to 8. The
	// buyers' class is re-scored once, as b2 is priced out.
	if h := res.History[8]; h.Prices[0] != 5 || h.ActiveBidders != 3 {
		t.Fatalf("round 8: price %v, %d active; want 5 and s back in", h.Prices[0], h.ActiveBidders)
	}
	if c := res.Clock; c.Rechosen != 8+1 {
		t.Errorf("%d re-chosen over %d rounds; want s at rounds 1 to 8 and the buyers' class once", c.Rechosen, res.Rounds)
	}
}

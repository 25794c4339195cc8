package core

import (
	"errors"
	"math/rand"
	"testing"

	"clustermarket/internal/resource"
)

// Metamorphic properties of the clock auction: known input
// transformations with exactly predictable output transformations. They
// catch whole classes of bugs (unit mix-ups, order dependence, phantom
// demand) without any oracle beyond the auction itself.

// randomIntegerMarket builds a market whose bundle quantities are small
// integers. Integer quantities make every excess-demand component an
// exact float64 sum regardless of accumulation order, which is what lets
// the permutation and zero-demand properties demand bit-identical — not
// merely approximately equal — results.
func randomIntegerMarket(rng *rand.Rand, pools, bidders int) (*resource.Registry, []*Bid, resource.Vector) {
	regPools := make([]resource.Pool, pools)
	for i := range regPools {
		regPools[i] = resource.Pool{Cluster: string(rune('a' + i/4)), Dim: resource.Dimension(i % 4)}
	}
	reg := resource.NewRegistry(regPools...)
	var bids []*Bid
	for u := 0; u < bidders; u++ {
		nb := 1 + rng.Intn(3)
		b := &Bid{User: "u"}
		for k := 0; k < nb; k++ {
			v := reg.Zero()
			for c := 0; c < 1+rng.Intn(3); c++ {
				v[rng.Intn(pools)] = float64(1 + rng.Intn(9))
			}
			b.Bundles = append(b.Bundles, v)
		}
		switch rng.Intn(5) {
		case 0: // seller: negate every bundle, ask to be paid
			for _, v := range b.Bundles {
				for i := range v {
					v[i] = -v[i]
				}
			}
			b.Limit = -(1 + rng.Float64()*20)
		case 1: // trader: one demanded and one offered component per bundle
			for _, v := range b.Bundles {
				v.SetZero()
				i := rng.Intn(pools)
				j := (i + 1 + rng.Intn(pools-1)) % pools
				v[i] = float64(1 + rng.Intn(9))
				v[j] = -float64(1 + rng.Intn(9))
			}
			b.Limit = 5 + rng.Float64()*60
		default: // buyer
			b.Limit = 5 + rng.Float64()*120
		}
		bids = append(bids, b)
	}
	start := reg.Zero()
	for i := range start {
		start[i] = 0.5 + rng.Float64()*2
	}
	return reg, bids, start
}

// productionRun is Auction.Run in ReferenceRun's shape.
func productionRun(reg *resource.Registry, bids []*Bid, cfg Config) (*Result, error) {
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		return nil, err
	}
	return a.Run()
}

// clocks are the two implementations of Algorithm 1: the properties
// below are the algorithm's, so the oracle is held to them too.
var clocks = []struct {
	name string
	run  func(*resource.Registry, []*Bid, Config) (*Result, error)
}{
	{"production", productionRun},
	{"reference", ReferenceRun},
}

func mustRun(t *testing.T, run func(*resource.Registry, []*Bid, Config) (*Result, error), reg *resource.Registry, bids []*Bid, cfg Config) *Result {
	t.Helper()
	res, err := run(reg, bids, cfg)
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		t.Fatal(err)
	}
	return res
}

// TestScalingCovariance: scaling every price-dimensioned input by k —
// bid limits, reserve/start prices, and the increment policy's
// price-dimensioned parameters (α maps demand to price; δ and the floor
// are absolute price steps) — scales every clearing price and payment by
// exactly k, and changes nothing else: same winners, same allocations,
// same rounds, same chosen bundles. With k a power of two the float64
// scaling is exact at every operation (every comparison and update is
// homogeneous of degree one in the scaled quantities), so the test
// demands bit equality, not tolerance.
func TestScalingCovariance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg, bids, start := randomIntegerMarket(rng, 12, 24)
		for _, k := range []float64{0.25, 0.5, 2, 8} {
			for _, clk := range clocks {
				base := Config{
					Start:  start,
					Policy: Capped{Alpha: 0.02, Delta: 0.25, MinStep: 0.001},
				}
				res := mustRun(t, clk.run, reg, bids, base)

				scaledBids := make([]*Bid, len(bids))
				for i, b := range bids {
					sb := *b
					sb.Limit = b.Limit * k
					sb.BundleLimits = nil
					scaledBids[i] = &sb
				}
				scaledStart := start.Clone()
				for i := range scaledStart {
					scaledStart[i] *= k
				}
				scaled := Config{
					Start:  scaledStart,
					Policy: Capped{Alpha: 0.02 * k, Delta: 0.25 * k, MinStep: 0.001 * k},
				}
				sres := mustRun(t, clk.run, reg, scaledBids, scaled)

				if sres.Converged != res.Converged || sres.Rounds != res.Rounds {
					t.Fatalf("seed %d k=%g %v: converged/rounds (%v,%d) vs (%v,%d)",
						seed, k, clk.name, sres.Converged, sres.Rounds, res.Converged, res.Rounds)
				}
				for i := range start {
					if sres.Prices[i] != res.Prices[i]*k {
						t.Fatalf("seed %d k=%g %v: pool %d price %g, want %g·%g",
							seed, k, clk.name, i, sres.Prices[i], res.Prices[i], k)
					}
				}
				for i := range bids {
					if sres.IsWinner(i) != res.IsWinner(i) || sres.ChosenBundle[i] != res.ChosenBundle[i] {
						t.Fatalf("seed %d k=%g %v: bid %d outcome changed under scaling", seed, k, clk.name, i)
					}
					if sres.Payments[i] != res.Payments[i]*k {
						t.Fatalf("seed %d k=%g %v: bid %d payment %g, want %g·%g",
							seed, k, clk.name, i, sres.Payments[i], res.Payments[i], k)
					}
					if res.IsWinner(i) && !vectorsExactlyEqual(sres.Allocation(i), res.Allocation(i)) {
						t.Fatalf("seed %d k=%g %v: bid %d allocation changed under scaling", seed, k, clk.name, i)
					}
				}
			}
		}
	}
}

// TestPermutationInvariance: permuting order-submission arrival within
// one batch leaves the auction results bit-identical (modulo the same
// permutation of per-bid outcomes). The clock must treat the batch as a
// set: prices depend on aggregate demand, and with integer quantities the
// aggregates are exact sums, so even float accumulation order may not
// leak through.
func TestPermutationInvariance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		reg, bids, start := randomIntegerMarket(rng, 10, 20)
		perm := rng.Perm(len(bids))
		permBids := make([]*Bid, len(bids))
		for i, p := range perm {
			// permBids[i] is original bid perm[i]; clone so the two runs
			// share no mutable state.
			b := *bids[p]
			permBids[i] = &b
		}
		for _, clk := range clocks {
			cfg := Config{Start: start}
			res := mustRun(t, clk.run, reg, bids, cfg)
			pres := mustRun(t, clk.run, reg, permBids, cfg)

			if pres.Converged != res.Converged || pres.Rounds != res.Rounds {
				t.Fatalf("seed %d %v: converged/rounds changed under permutation", seed, clk.name)
			}
			if !vectorsExactlyEqual(pres.Prices, res.Prices) {
				t.Fatalf("seed %d %v: prices changed under permutation:\n%v\nvs\n%v",
					seed, clk.name, pres.Prices, res.Prices)
			}
			for i, p := range perm {
				if pres.IsWinner(i) != res.IsWinner(p) ||
					pres.Payments[i] != res.Payments[p] ||
					pres.ChosenBundle[i] != res.ChosenBundle[p] {
					t.Fatalf("seed %d %v: bid %d(→%d) outcome changed under permutation", seed, clk.name, p, i)
				}
				if res.IsWinner(p) && !vectorsExactlyEqual(pres.Allocation(i), res.Allocation(p)) {
					t.Fatalf("seed %d %v: bid %d(→%d) allocation changed under permutation", seed, clk.name, p, i)
				}
			}
		}
	}
}

// TestZeroDemandBidderNeutral: adding a bidder that can never afford any
// bundle (its limit is below any bundle's cost at the starting prices,
// and clock prices only rise) changes nothing for anyone else,
// bit-for-bit — no phantom demand, no index bookkeeping leaks. The
// inert bidder itself must lose with a round-0 drop.
func TestZeroDemandBidderNeutral(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		reg, bids, start := randomIntegerMarket(rng, 10, 20)
		// Every start price is ≥ 0.5, every bundle component ≥ 1, so a
		// buyer with limit 0 is priced out at round 0 and forever.
		inert := &Bid{User: "inert", Limit: 0}
		v := reg.Zero()
		v[rng.Intn(reg.Len())] = float64(1 + rng.Intn(5))
		inert.Bundles = []resource.Vector{v}
		insertAt := rng.Intn(len(bids) + 1)
		augmented := make([]*Bid, 0, len(bids)+1)
		augmented = append(augmented, bids[:insertAt]...)
		augmented = append(augmented, inert)
		augmented = append(augmented, bids[insertAt:]...)

		for _, clk := range clocks {
			cfg := Config{Start: start}
			res := mustRun(t, clk.run, reg, bids, cfg)
			ares := mustRun(t, clk.run, reg, augmented, cfg)

			if ares.Converged != res.Converged || ares.Rounds != res.Rounds {
				t.Fatalf("seed %d %v: converged/rounds changed by inert bidder", seed, clk.name)
			}
			if !vectorsExactlyEqual(ares.Prices, res.Prices) {
				t.Fatalf("seed %d %v: prices changed by inert bidder", seed, clk.name)
			}
			for i := range bids {
				j := i
				if i >= insertAt {
					j = i + 1
				}
				if ares.IsWinner(j) != res.IsWinner(i) ||
					ares.Payments[j] != res.Payments[i] ||
					ares.ChosenBundle[j] != res.ChosenBundle[i] {
					t.Fatalf("seed %d %v: bid %d outcome changed by inert bidder", seed, clk.name, i)
				}
				if res.IsWinner(i) && !vectorsExactlyEqual(ares.Allocation(j), res.Allocation(i)) {
					t.Fatalf("seed %d %v: bid %d allocation changed by inert bidder", seed, clk.name, i)
				}
			}
			if ares.IsWinner(insertAt) {
				t.Fatalf("seed %d %v: inert bidder won", seed, clk.name)
			}
			if ares.DropRound[insertAt] != 0 {
				t.Fatalf("seed %d %v: inert bidder drop round = %d, want 0", seed, clk.name, ares.DropRound[insertAt])
			}
		}
	}
}

func vectorsExactlyEqual(a, b resource.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

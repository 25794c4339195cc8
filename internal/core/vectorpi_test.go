package core

import (
	"testing"

	"clustermarket/internal/resource"
)

// Tests for the vector-π extension mentioned in Section II: distinct
// valuations per bundle.

func TestVectorPiValidation(t *testing.T) {
	good := Bid{
		User:         "v",
		Bundles:      []resource.Vector{{5, 0}, {0, 5}},
		BundleLimits: []float64{10, 8},
	}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid vector-pi bid rejected: %v", err)
	}
	bad := Bid{
		User:         "v",
		Bundles:      []resource.Vector{{5, 0}, {0, 5}},
		BundleLimits: []float64{10},
	}
	if err := bad.Validate(2); err == nil {
		t.Error("mismatched bundle limits accepted")
	}
	// Pure seller with one positive per-bundle limit.
	seller := Bid{
		User:         "s",
		Bundles:      []resource.Vector{{-5, 0}, {0, -5}},
		BundleLimits: []float64{-1, 2},
	}
	if err := seller.Validate(2); err == nil {
		t.Error("seller with positive bundle limit accepted")
	}
}

func TestVectorPiMaxLimit(t *testing.T) {
	b := Bid{Limit: 7, Bundles: []resource.Vector{{1}}}
	if b.MaxLimit() != 7 {
		t.Errorf("scalar MaxLimit = %v", b.MaxLimit())
	}
	b.BundleLimits = []float64{3, 9, 5}
	if b.MaxLimit() != 9 {
		t.Errorf("vector MaxLimit = %v", b.MaxLimit())
	}
}

func TestVectorPiProxyPicksMaxSurplus(t *testing.T) {
	// Bundle 0 is cheaper but the user values bundle 1 far more: with
	// vector limits the proxy must pick the larger-surplus bundle 1, not
	// the cheaper bundle 0.
	b := &Bid{
		User:         "v",
		Bundles:      []resource.Vector{{5, 0}, {0, 5}},
		BundleLimits: []float64{6, 20},
	}
	d := demand(b, resource.Vector{1, 2}) // costs: 5 and 10; surpluses: 1 and 10
	if d == nil || d[1] != 5 {
		t.Fatalf("demand = %v, want bundle 1", d)
	}
	if c := choice(b, resource.Vector{1, 2}); c != 1 {
		t.Errorf("choice = %d", c)
	}
	// Raise prices so only bundle 0 stays affordable.
	d = demand(b, resource.Vector{1, 5}) // costs: 5 and 25; bundle 1 over its 20 limit
	if d == nil || d[0] != 5 {
		t.Fatalf("demand = %v, want bundle 0", d)
	}
	// Price both out.
	if d := demand(b, resource.Vector{2, 10}); d != nil {
		t.Fatalf("demand = %v, want nil", d)
	}
}

func TestVectorPiAuctionSatisfiesSystem(t *testing.T) {
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "a", Dim: resource.CPU},
		resource.Pool{Cluster: "b", Dim: resource.CPU},
	)
	bids := []*Bid{
		{User: "op", Limit: -0.01, Bundles: []resource.Vector{{-20, -20}}},
		// Values cluster a at 100 and cluster b at only 30 for the same
		// quantity (e.g. data locality).
		{
			User:         "locality",
			Bundles:      []resource.Vector{{10, 0}, {0, 10}},
			BundleLimits: []float64{100, 30},
		},
		// A competitor pushes cluster a's price up.
		{User: "rival", Limit: 200, Bundles: []resource.Vector{{15, 0}}},
	}
	a, err := NewAuction(reg, bids, Config{
		Start:  resource.Vector{1, 1},
		Policy: Capped{Alpha: 0.05, Delta: 0.2, MinStep: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := CheckSystem(bids, res, 1e-9); len(v) != 0 {
		t.Fatalf("SYSTEM violations: %v", v)
	}
	// The locality bidder must have gotten one of its bundles or been
	// priced out of both — and if it won bundle b, its payment respects
	// the lower 30 limit.
	if res.IsWinner(1) {
		x := res.Allocation(1)
		if x[1] == 10 && res.Payments[1] > 30 {
			t.Errorf("paid %v for the low-value bundle", res.Payments[1])
		}
	}
}

func TestVectorPiCheckSystemCatchesWrongChoice(t *testing.T) {
	bids := []*Bid{{
		User:         "v",
		Bundles:      []resource.Vector{{5, 0}, {0, 5}},
		BundleLimits: []float64{6, 20},
	}}
	// At p = (1,1) both bundles cost 5; surpluses 1 and 15. Allocating
	// bundle 0 violates optimality (4).
	res := &Result{
		Converged:    true,
		Prices:       resource.Vector{1, 1},
		ChosenBundle: []int{0},
		Payments:     []float64{5},
	}
	var found bool
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 4 {
			found = true
		}
	}
	if !found {
		t.Error("suboptimal bundle choice not flagged")
	}
}

func TestVectorPiCheckSystemLoserPerBundleLimits(t *testing.T) {
	bids := []*Bid{{
		User:         "v",
		Bundles:      []resource.Vector{{5, 0}, {0, 5}},
		BundleLimits: []float64{4, 100},
	}}
	// Bundle 1 is easily affordable at p=(1,1): a "loser" here is wrong.
	res := &Result{
		Converged:    true,
		Prices:       resource.Vector{1, 1},
		ChosenBundle: []int{-1},
		Payments:     []float64{0},
	}
	var found bool
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 5 {
			found = true
		}
	}
	if !found {
		t.Error("affordable loser not flagged under vector limits")
	}
}

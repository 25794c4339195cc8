package core

import (
	"math"
	"testing"

	"clustermarket/internal/resource"
)

func TestBidClass(t *testing.T) {
	cases := []struct {
		name string
		bid  Bid
		want Class
	}{
		{"buyer", Bid{Bundles: []resource.Vector{{1, 0}, {0, 2}}}, PureBuyer},
		{"seller", Bid{Bundles: []resource.Vector{{-1, 0}}}, PureSeller},
		{"mixed bundle", Bid{Bundles: []resource.Vector{{1, -1}}}, Trader},
		{"mixed across bundles", Bid{Bundles: []resource.Vector{{1, 0}, {-1, 0}}}, Trader},
		{"zero bundle counts as buy side", Bid{Bundles: []resource.Vector{{0, 0}}}, PureBuyer},
	}
	for _, c := range cases {
		if got := c.bid.Class(); got != c.want {
			t.Errorf("%s: Class = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if PureBuyer.String() != "buyer" || PureSeller.String() != "seller" || Trader.String() != "trader" {
		t.Error("Class.String values wrong")
	}
}

func TestBidValidate(t *testing.T) {
	good := Bid{User: "u", Bundles: []resource.Vector{{1, 0}}, Limit: 5}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid bid rejected: %v", err)
	}
	cases := []struct {
		name string
		bid  Bid
	}{
		{"empty user", Bid{Bundles: []resource.Vector{{1}}, Limit: 1}},
		{"no bundles", Bid{User: "u", Limit: 1}},
		{"nan limit", Bid{User: "u", Bundles: []resource.Vector{{1}}, Limit: math.NaN()}},
		{"inf limit", Bid{User: "u", Bundles: []resource.Vector{{1}}, Limit: math.Inf(1)}},
		{"wrong length", Bid{User: "u", Bundles: []resource.Vector{{1, 2}}, Limit: 1}},
		{"nan component", Bid{User: "u", Bundles: []resource.Vector{{math.NaN()}}, Limit: 1}},
		{"zero bundle", Bid{User: "u", Bundles: []resource.Vector{{0}}, Limit: 1}},
		{"seller with positive limit", Bid{User: "u", Bundles: []resource.Vector{{-1}}, Limit: 5}},
	}
	for _, c := range cases {
		if err := c.bid.Validate(1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// choice is the index of the bundle the proxy demands at prices p, or
// −1: the shared demand scan over the bid's bundle views.
func choice(b *Bid, p resource.Vector) int {
	rw := b.view()
	return b.bestAffordable(rw.appendBundles(nil), p)
}

// demand is G_u(p): the bundle the proxy chooses at prices p, or nil
// when it demands nothing.
func demand(b *Bid, p resource.Vector) resource.Vector {
	if i := choice(b, p); i >= 0 {
		return b.Bundle(i)
	}
	return nil
}

func TestProxyDemandBuyer(t *testing.T) {
	// Buyer indifferent between pools 0 and 1, limit 10.
	b := &Bid{User: "u", Limit: 10, Bundles: []resource.Vector{{5, 0}, {0, 5}}}

	// Pool 1 cheaper: chooses bundle 1.
	d := demand(b, resource.Vector{2, 1})
	if d == nil || d[1] != 5 {
		t.Fatalf("demand = %v", d)
	}
	if c := choice(b, resource.Vector{2, 1}); c != 1 {
		t.Errorf("choice = %d", c)
	}

	// Equal prices: ties break to the lowest index.
	d = demand(b, resource.Vector{1, 1})
	if c := choice(b, resource.Vector{1, 1}); c != 0 {
		t.Errorf("tie choice = %d", c)
	}
	if d == nil || d[0] != 5 {
		t.Fatalf("tie demand = %v", d)
	}

	// Priced out: cheapest bundle costs 5·3 = 15 > 10.
	d = demand(b, resource.Vector{3, 3})
	if d != nil {
		t.Fatalf("priced-out demand = %v", d)
	}
	if c := choice(b, resource.Vector{3, 3}); c != -1 {
		t.Errorf("priced-out choice = %d", c)
	}
}

func TestProxyDemandSeller(t *testing.T) {
	// Seller offers 10 units, requires at least 5 in revenue
	// (Limit = −5). Revenue = −(qᵀp) = 10·p.
	b := &Bid{User: "s", Limit: -5, Bundles: []resource.Vector{{-10}}}

	// p = 1: revenue 10 ≥ 5, so the seller is in.
	if d := demand(b, resource.Vector{1}); d == nil {
		t.Fatal("seller dropped despite sufficient revenue")
	}
	// p = 0.4: revenue 4 < 5, seller stays out.
	if d := demand(b, resource.Vector{0.4}); d != nil {
		t.Fatalf("seller active below reserve revenue: %v", d)
	}
}

func TestProxySellerPicksHighestRevenue(t *testing.T) {
	// Seller indifferent between offering in pool 0 or pool 1; argmin of
	// qᵀp maximizes revenue.
	b := &Bid{User: "s", Limit: -1, Bundles: []resource.Vector{{-10, 0}, {0, -10}}}
	d := demand(b, resource.Vector{2, 3})
	if d == nil || d[1] != -10 {
		t.Fatalf("seller chose %v, want offer in the pricier pool 1", d)
	}
}

func TestPremium(t *testing.T) {
	if got := Premium(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Premium = %v", got)
	}
	// Sellers: limit −50, received 60 (payment −60): |−50+60|/60 = 1/6.
	if got := Premium(-50, -60); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("seller Premium = %v", got)
	}
	if got := Premium(5, 0); got != 0 {
		t.Errorf("zero payment Premium = %v", got)
	}
}

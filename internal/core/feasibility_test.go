package core

import (
	"strings"
	"testing"

	"clustermarket/internal/resource"
)

func feasibleFixture() ([]*Bid, *Result) {
	bids := []*Bid{
		{User: "w", Limit: 30, Bundles: []resource.Vector{{10}}},
		{User: "l", Limit: 5, Bundles: []resource.Vector{{10}}},
		{User: "s", Limit: -1, Bundles: []resource.Vector{{-10}}},
	}
	res := &Result{
		Converged:    true,
		Prices:       resource.Vector{2},
		ChosenBundle: []int{0, -1, 0},
		Payments:     []float64{20, 0, -20},
	}
	return bids, res
}

func TestCheckSystemAccepts(t *testing.T) {
	bids, res := feasibleFixture()
	if v := CheckSystem(bids, res, 1e-9); len(v) != 0 {
		t.Fatalf("violations on feasible point: %v", v)
	}
}

func TestCheckSystemConstraint1(t *testing.T) {
	bids, res := feasibleFixture()
	res.ChosenBundle[0] = 1 // not one of the bundles
	found := false
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 1 && v.BidIndex == 0 {
			found = true
		}
	}
	if !found {
		t.Error("constraint (1) violation missed")
	}
}

func TestCheckSystemConstraint2(t *testing.T) {
	bids, res := feasibleFixture()
	res.ChosenBundle[2] = -1 // drop the seller: aggregate becomes +10
	res.Payments[2] = 0
	found := false
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 2 {
			found = true
		}
	}
	if !found {
		t.Error("constraint (2) violation missed")
	}
}

func TestCheckSystemConstraint3(t *testing.T) {
	bids, res := feasibleFixture()
	bids[0].Limit = 15 // winner now pays 20 > 15
	violations := CheckSystem(bids, res, 1e-9)
	found := false
	for _, v := range violations {
		if v.Constraint == 3 && v.BidIndex == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("constraint (3) violation missed: %v", violations)
	}
}

func TestCheckSystemConstraint4(t *testing.T) {
	bids, res := feasibleFixture()
	res.Payments[0] = 25 // overcharged relative to cheapest bundle cost 20
	found := false
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 4 && v.BidIndex == 0 {
			found = true
		}
	}
	if !found {
		t.Error("constraint (4) violation missed")
	}
}

func TestCheckSystemConstraint5(t *testing.T) {
	bids, res := feasibleFixture()
	bids[1].Limit = 50 // loser could afford cost 20
	found := false
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 5 && v.BidIndex == 1 {
			found = true
		}
	}
	if !found {
		t.Error("constraint (5) violation missed")
	}
}

func TestCheckSystemConstraint6(t *testing.T) {
	bids, res := feasibleFixture()
	res.Prices = resource.Vector{-2}
	found := false
	for _, v := range CheckSystem(bids, res, 1e-9) {
		if v.Constraint == 6 {
			found = true
		}
	}
	if !found {
		t.Error("constraint (6) violation missed")
	}
}

func TestSystemViolationError(t *testing.T) {
	v := SystemViolation{Constraint: 3, BidIndex: 2, Detail: "boom"}
	if !strings.Contains(v.Error(), "constraint (3)") || !strings.Contains(v.Error(), "bid 2") {
		t.Errorf("Error = %q", v.Error())
	}
	m := SystemViolation{Constraint: 2, BidIndex: -1, Detail: "agg"}
	if !strings.Contains(m.Error(), "market") {
		t.Errorf("Error = %q", m.Error())
	}
}

package trace

import (
	"strings"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

func testConfig() Config {
	return Config{
		Seed:     1,
		Clusters: []string{"r1", "r2", "r3", "r4"},
		Teams:    40,
	}
}

func testInput(reg *resource.Registry, congested ...string) RoundInput {
	util := reg.Zero()
	ref := reg.Zero()
	isCongested := make(map[string]bool)
	for _, c := range congested {
		isCongested[c] = true
	}
	for i := 0; i < reg.Len(); i++ {
		p := reg.Pool(i)
		if isCongested[p.Cluster] {
			util[i] = 0.9
		} else {
			util[i] = 0.3
		}
		ref[i] = 1.0
	}
	return RoundInput{Utilization: util, ReferencePrices: ref}
}

func TestNewValidation(t *testing.T) {
	reg := resource.NewStandardRegistry("r1")
	if _, err := New(Config{Teams: 1}, reg); err == nil {
		t.Error("no clusters accepted")
	}
	if _, err := New(Config{Clusters: []string{"r1"}}, reg); err == nil {
		t.Error("zero teams accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)

	gen1, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(reg, "r1")
	bids1, err := gen1.Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	bids2, err := gen2.Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(bids1) != len(bids2) {
		t.Fatalf("lengths differ: %d vs %d", len(bids1), len(bids2))
	}
	for i := range bids1 {
		if bids1[i].Bid.User != bids2[i].Bid.User || bids1[i].Bid.Limit != bids2[i].Bid.Limit {
			t.Fatalf("bid %d differs: %v vs %v", i, bids1[i].Bid, bids2[i].Bid)
		}
	}
}

func TestGeneratedBidsAreValid(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	bids, err := gen.Generate(testInput(reg, "r1", "r2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bids) < cfg.Teams/2 {
		t.Fatalf("suspiciously few bids: %d", len(bids))
	}
	for _, gb := range bids {
		if err := gb.Bid.Validate(reg.Len()); err != nil {
			t.Errorf("invalid bid: %v", err)
		}
		switch gb.Side {
		case Buy:
			if gb.Bid.Class() != core.PureBuyer {
				t.Errorf("buy bid %s classified %v", gb.Bid.User, gb.Bid.Class())
			}
			if gb.Bid.Limit <= 0 {
				t.Errorf("buy bid %s limit %v", gb.Bid.User, gb.Bid.Limit)
			}
			if gb.Bid.Limit > gb.Team.Budget {
				t.Errorf("bid %s exceeds budget", gb.Bid.User)
			}
		case Sell:
			if gb.Bid.Class() != core.PureSeller {
				t.Errorf("sell bid %s classified %v", gb.Bid.User, gb.Bid.Class())
			}
			if gb.Bid.Limit >= 0 {
				t.Errorf("sell bid %s limit %v", gb.Bid.User, gb.Bid.Limit)
			}
		case Trade:
			if gb.Bid.Class() != core.Trader {
				t.Errorf("trade bid %s classified %v", gb.Bid.User, gb.Bid.Class())
			}
		}
	}
}

func TestSellersOnlyFromCongestedClusters(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	bids, err := gen.Generate(testInput(reg, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	sellers := 0
	for _, gb := range bids {
		if gb.Side != Sell {
			continue
		}
		sellers++
		if gb.Team.Home != "r1" {
			t.Errorf("seller %s from idle cluster %s", gb.Bid.User, gb.Team.Home)
		}
	}
	if sellers == 0 {
		t.Error("no sellers generated from the congested cluster")
	}
}

func TestNoSellersWithoutCongestion(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	bids, err := gen.Generate(testInput(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, gb := range bids {
		if gb.Side == Sell {
			t.Errorf("seller %s generated with no congested clusters", gb.Bid.User)
		}
	}
}

func TestSophisticationRisesAndPremiumsFall(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	before := 0.0
	for _, tm := range gen.Teams() {
		before += tm.Sophistication
	}
	in := testInput(reg, "r1")
	if _, err := gen.Generate(in); err != nil {
		t.Fatal(err)
	}
	after := 0.0
	for _, tm := range gen.Teams() {
		after += tm.Sophistication
	}
	if after <= before {
		t.Errorf("sophistication did not rise: %v -> %v", before, after)
	}

	// Premium spread must shrink with sophistication for a fixed team.
	team := gen.Teams()[0]
	team.Sophistication = 0
	lowSoph := 0.0
	for i := 0; i < 2000; i++ {
		lowSoph += gen.premium(team)
	}
	team.Sophistication = 0.95
	highSoph := 0.0
	for i := 0; i < 2000; i++ {
		highSoph += gen.premium(team)
	}
	if highSoph >= lowSoph {
		t.Errorf("premiums did not fall with sophistication: %v vs %v", lowSoph, highSoph)
	}
}

func TestTradersAppearInLaterRounds(t *testing.T) {
	cfg := testConfig()
	cfg.Teams = 120
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(reg, "r1", "r2")

	first, err := gen.Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, gb := range first {
		if gb.Side == Trade {
			t.Fatal("trade bid in round 0")
		}
	}
	// After a few rounds sophistication is high enough for arbitrage.
	var sawTrade bool
	for r := 0; r < 4 && !sawTrade; r++ {
		bids, err := gen.Generate(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, gb := range bids {
			if gb.Side == Trade {
				sawTrade = true
			}
		}
	}
	if !sawTrade {
		t.Error("no arbitrage trades after sophistication rose")
	}
}

func TestGenerateInputValidation(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(RoundInput{
		Utilization:     resource.Vector{1},
		ReferencePrices: reg.Zero(),
	}); err == nil {
		t.Error("short utilization vector accepted")
	}
}

func TestApplySettlementMovesTeam(t *testing.T) {
	cfg := testConfig()
	cfg.Teams = 1
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	team := gen.Teams()[0]
	team.Home = "r1"

	// Fabricate a winning buy into r2.
	alloc := reg.Zero()
	alloc[reg.MustIndex(resource.Pool{Cluster: "r2", Dim: resource.CPU})] = 10
	bid := &core.Bid{User: team.Name + "/buy", Bundles: []resource.Vector{alloc}, Limit: 100}
	gb := &GeneratedBid{Team: team, Bid: bid, Side: Buy}
	res := &core.Result{
		Converged:    true,
		Prices:       reg.Zero(),
		ChosenBundle: []int{0},
		Payments:     []float64{10},
		Winners:      []int{0},
	}
	gen.ApplySettlement([]*GeneratedBid{gb}, res)
	if team.Home != "r2" {
		t.Errorf("team did not migrate: home = %s", team.Home)
	}
	if team.Holdings.CPU != 10 {
		t.Errorf("holdings = %v", team.Holdings)
	}
}

func TestApplySettlementSellsHoldings(t *testing.T) {
	cfg := testConfig()
	cfg.Teams = 1
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	team := gen.Teams()[0]
	team.Home = "r1"
	startCPU := team.Holdings.CPU

	alloc := reg.Zero()
	alloc[reg.MustIndex(resource.Pool{Cluster: "r1", Dim: resource.CPU})] = -5
	bid := &core.Bid{User: team.Name + "/sell", Bundles: []resource.Vector{alloc}, Limit: -1}
	gb := &GeneratedBid{Team: team, Bid: bid, Side: Sell}
	res := &core.Result{
		Converged:    true,
		Prices:       reg.Zero(),
		ChosenBundle: []int{0},
		Payments:     []float64{-5},
		Winners:      []int{0},
	}
	gen.ApplySettlement([]*GeneratedBid{gb}, res)
	if got := team.Holdings.CPU; got != startCPU-5 {
		t.Errorf("holdings CPU = %v, want %v", got, startCPU-5)
	}
	// Losing bids change nothing.
	res.ChosenBundle[0] = -1
	gen.ApplySettlement([]*GeneratedBid{gb}, res)
	if got := team.Holdings.CPU; got != startCPU-5 {
		t.Errorf("losing settlement mutated holdings: %v", got)
	}
}

func TestSideString(t *testing.T) {
	if Buy.String() != "bid" || Sell.String() != "offer" || Trade.String() != "trade" {
		t.Error("Side.String wrong")
	}
}

func TestBuyBidNamesCarrySide(t *testing.T) {
	cfg := testConfig()
	reg := resource.NewStandardRegistry(cfg.Clusters...)
	gen, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	bids, err := gen.Generate(testInput(reg, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, gb := range bids {
		var suffix string
		switch gb.Side {
		case Buy:
			suffix = "/buy"
		case Sell:
			suffix = "/sell"
		case Trade:
			suffix = "/trade"
		}
		if !strings.HasSuffix(gb.Bid.User, suffix) {
			t.Errorf("bid %q lacks side suffix %q", gb.Bid.User, suffix)
		}
	}
}

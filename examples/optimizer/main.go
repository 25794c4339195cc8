// Optimizer: contrasts the paper's clock auction with the explicitly
// optimizing allocator it discusses as future work (Sections III.C.4 and
// VI). The optimizer squeezes out more total surplus, faster — but its
// outcome cannot be supported by fair uniform prices, which is why the
// production system runs the clock. Run with:
//
//	go run ./examples/optimizer
package main

import (
	"fmt"
	"log"

	cm "clustermarket"
)

func main() {
	reg := cm.NewRegistry(
		cm.Pool{Cluster: "east", Dim: cm.CPU},
		cm.Pool{Cluster: "west", Dim: cm.CPU},
	)
	reserve := cm.Vector{1, 1}

	// Supply: the operator sells 100 cores per cluster. Demand: a whale
	// that takes a whole cluster, and a school of small teams whose
	// combined value exceeds the whale's.
	bids := []*cm.Bid{
		{User: "operator", Limit: -0.01, Bundles: []cm.Vector{{-100, -100}}},
		{User: "whale", Limit: 260, Bundles: []cm.Vector{{100, 0}, {0, 100}}},
	}
	for i := 0; i < 5; i++ {
		bids = append(bids, &cm.Bid{
			User:    fmt.Sprintf("small-%d", i),
			Limit:   90,
			Bundles: []cm.Vector{{40, 0}, {0, 40}},
		})
	}

	// Path 1: the clock auction (the paper's choice).
	a, err := cm.NewAuction(reg, bids, cm.AuctionConfig{
		Start:  reserve,
		Policy: cm.Capped{Alpha: 0.01, Delta: 0.1, MinStep: 0.01},
	})
	if err != nil {
		log.Fatal(err)
	}
	clock, err := a.Run()
	if err != nil {
		log.Fatal(err)
	}
	clockWelfare, err := cm.EvaluateWelfare(bids, clock.ChosenBundle, reserve, cm.TotalSurplus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clock auction:   %d rounds, prices %v\n", clock.Rounds, clock.Prices)
	fmt.Printf("  winners %v, total surplus %.2f\n", clock.Winners, clockWelfare)
	if v := cm.CheckSystem(bids, clock, 1e-9); len(v) == 0 {
		fmt.Println("  SYSTEM fairness constraints: all satisfied (uniform prices separate winners from losers)")
	}

	// Path 2: the exact optimizer over the same bids.
	opt, err := cm.OptimizeExact(reg, bids, reserve, cm.TotalSurplus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact optimizer: total surplus %.2f (accepted bids %v)\n", opt.Welfare, opt.Accepted)
	fmt.Printf("  surplus gained over clock: %.2f\n", opt.Welfare-clockWelfare)
	fmt.Printf("  fairness violations at reserve prices: %d\n", cm.UnfairnessReport(bids, opt, reserve))
	fmt.Println("\nthe paper's point: the clock \"completely ignores the objective function\"")
	fmt.Println("but yields clear, fair, uniform price signals — the optimizer does not.")
}

// Quickstart: the smallest complete market — two clusters, two teams, one
// clock auction. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	cm "clustermarket"
)

func main() {
	// 1. Build the physical substrate: two clusters of identical machines.
	fleet := cm.NewFleet()
	for _, name := range []string{"r1", "r2"} {
		c := cm.NewCluster(name, nil)
		c.AddMachines(8, cm.Usage{CPU: 16, RAM: 64, Disk: 10})
		if err := fleet.AddCluster(c); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Open the exchange and give each team budget dollars.
	ex, err := cm.NewExchange(fleet, cm.ExchangeConfig{InitialBudget: 2000})
	if err != nil {
		log.Fatal(err)
	}
	for _, team := range []string{"search", "ads"} {
		if err := ex.OpenAccount(team); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Teams bid. search uses the two-step product flow (Figure 4);
	// ads writes a bid in the TBBL-style bidding language directly.
	if _, err := ex.SubmitProduct("search", "bigtable-node", 4, []string{"r1", "r2"}, 300); err != nil {
		log.Fatal(err)
	}
	parsed, err := cm.ParseBid(`bid "ads" limit 250 {
	  oneof {
	    all { r1/cpu:20 r1/ram:40 r1/disk:2 }
	    all { r2/cpu:20 r2/ram:40 r2/disk:2 }
	  }
	}`)
	if err != nil {
		log.Fatal(err)
	}
	bid, err := cm.CompileBid(parsed, ex.Registry())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ex.Submit("ads", bid); err != nil {
		log.Fatal(err)
	}

	// 4. Run the binding clock auction.
	rec, _, err := ex.RunAuction()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction #%d converged in %d rounds; %d/%d orders settled\n",
		rec.Number, rec.Rounds, rec.Settled, rec.Submitted)

	// 5. Inspect the outcome.
	for _, o := range ex.Orders() {
		fmt.Printf("  order %d (%s): %s", o.ID, o.Team, o.Status)
		if alloc := o.Allocation(); alloc != nil {
			fmt.Printf(", paid %.2f for %s", o.Payment, ex.Registry().Format(alloc))
		}
		fmt.Println()
	}
	for _, team := range ex.Teams() {
		bal, _ := ex.Balance(team)
		fmt.Printf("  %s balance: %.2f\n", team, bal)
	}
	rows, err := ex.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("market summary (uniform per-unit prices):")
	for _, r := range rows {
		fmt.Printf("  %-4s cpu=%.3f ram=%.3f disk=%.3f\n", r.Cluster, r.Price.CPU, r.Price.RAM, r.Price.Disk)
	}
}

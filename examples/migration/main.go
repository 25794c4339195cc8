// Migration: reproduces the Section V.B behavior in miniature — a mobile
// team priced out of a congested cluster by utilization-weighted reserve
// prices relocates to an idle one, while an anchored team pays the
// congestion premium to stay. Run with:
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"
	"math/rand"

	cm "clustermarket"
)

func main() {
	// Cluster "hot" starts ~85% utilized, "cold" ~15%.
	fleet := cm.NewFleet()
	rng := rand.New(rand.NewSource(7))
	for _, spec := range []struct {
		name   string
		target cm.Usage
	}{
		{"hot", cm.Usage{CPU: 0.85, RAM: 0.85, Disk: 0.8}},
		{"cold", cm.Usage{CPU: 0.15, RAM: 0.15, Disk: 0.1}},
	} {
		c := cm.NewCluster(spec.name, nil)
		c.AddMachines(20, cm.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			log.Fatal(err)
		}
		if err := fleet.FillToUtilization(rng, spec.name, spec.target); err != nil {
			log.Fatal(err)
		}
	}

	ex, err := cm.NewExchange(fleet, cm.ExchangeConfig{InitialBudget: 5000})
	if err != nil {
		log.Fatal(err)
	}
	for _, team := range []string{"mobile", "anchored"} {
		if err := ex.OpenAccount(team); err != nil {
			log.Fatal(err)
		}
	}

	reserve, err := ex.ReservePrices()
	if err != nil {
		log.Fatal(err)
	}
	reg := ex.Registry()
	hotCPU := reg.MustIndex(cm.Pool{Cluster: "hot", Dim: cm.CPU})
	coldCPU := reg.MustIndex(cm.Pool{Cluster: "cold", Dim: cm.CPU})
	fmt.Printf("reserve prices: hot/CPU=%.3f cold/CPU=%.3f (congestion-weighted, Section IV)\n",
		reserve[hotCPU], reserve[coldCPU])

	// The mobile team is indifferent between clusters; the anchored team
	// insists on "hot" (reengineering its stack would cost more than the
	// price premium).
	mobile := &cm.Bid{
		User:  "mobile",
		Limit: 2000,
		Bundles: []cm.Vector{
			bundle(reg, "hot", 60, 200, 10),
			bundle(reg, "cold", 60, 200, 10),
		},
	}
	anchored := &cm.Bid{
		User:    "anchored",
		Limit:   3000,
		Bundles: []cm.Vector{bundle(reg, "hot", 60, 200, 10)},
	}
	if _, err := ex.Submit("mobile", mobile); err != nil {
		log.Fatal(err)
	}
	if _, err := ex.Submit("anchored", anchored); err != nil {
		log.Fatal(err)
	}

	rec, _, err := ex.RunAuction()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auction settled in %d rounds\n", rec.Rounds)
	for _, o := range ex.Orders() {
		where := "nothing"
		if alloc := o.Allocation(); alloc != nil {
			where = reg.Format(alloc)
		}
		fmt.Printf("  %-9s %-5s -> %s (paid %.2f)\n", o.Team, o.Status, where, o.Payment)
	}
	fmt.Println("the mobile team lands in the idle cluster; the anchored team pays the congestion premium —")
	fmt.Println("\"the market economy allows teams to act on those costs autonomously\" (Section V.B)")

	// The quota ledger now reflects the placements.
	fmt.Printf("  mobile quota in cold: %v\n", fleet.Quotas().Granted("mobile", "cold"))
	fmt.Printf("  anchored quota in hot: %v\n", fleet.Quotas().Granted("anchored", "hot"))
}

func bundle(reg *cm.Registry, cluster string, cpu, ram, disk float64) cm.Vector {
	v := reg.Zero()
	v[reg.MustIndex(cm.Pool{Cluster: cluster, Dim: cm.CPU})] = cpu
	v[reg.MustIndex(cm.Pool{Cluster: cluster, Dim: cm.RAM})] = ram
	v[reg.MustIndex(cm.Pool{Cluster: cluster, Dim: cm.Disk})] = disk
	return v
}

package clustermarket_test

import (
	"fmt"
	"log"
	"math/rand"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// Example is the smallest complete market: two clusters, two teams, one
// clock auction.
func Example() {
	// 1. Build the physical substrate: two clusters of identical machines.
	fleet := cluster.NewFleet()
	for _, name := range []string{"r1", "r2"} {
		c := cluster.New(name, nil)
		c.AddMachines(8, cluster.Usage{CPU: 16, RAM: 64, Disk: 10})
		if err := fleet.AddCluster(c); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Open the exchange and give each team budget dollars.
	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 2000})
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
	parsed, err := bidlang.ParseAll(`bid "ads" limit 250 {
	  oneof {
	    all { r1/cpu:20 r1/ram:40 r1/disk:2 }
	    all { r2/cpu:20 r2/ram:40 r2/disk:2 }
	  }
	}`)
	if err != nil {
		log.Fatal(err)
	}
	ads := parsed[0]
	bundles, err := ads.Flatten(ex.Registry())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ex.Submit("ads", &core.Bid{User: ads.User, Bundles: bundles, Limit: ads.Limit}); err != nil {
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
	// Output:
	// auction #1 converged in 1 rounds; 2/2 orders settled
	//   order 0 (search): won, paid 30.90 for r1/CPU:+16 r1/Disk:+4 r1/RAM:+64
	//   order 1 (ads): won, paid 22.81 for r1/CPU:+20 r1/Disk:+2 r1/RAM:+40
	//   ads balance: 1977.19
	//   search balance: 1969.10
	// market summary (uniform per-unit prices):
	//   r1   cpu=0.368 ram=0.368 disk=0.368
	//   r2   cpu=0.368 ram=0.368 disk=0.368
}

// Example_migration reproduces the Section V.B behavior in miniature: a
// mobile team priced out of a congested cluster by utilization-weighted
// reserve prices relocates to an idle one, while an anchored team pays
// the congestion premium to stay.
func Example_migration() {
	// Cluster "hot" starts ~85% utilized, "cold" ~15%.
	fleet := cluster.NewFleet()
	rng := rand.New(rand.NewSource(7))
	for _, spec := range []struct {
		name   string
		target cluster.Usage
	}{
		{"hot", cluster.Usage{CPU: 0.85, RAM: 0.85, Disk: 0.8}},
		{"cold", cluster.Usage{CPU: 0.15, RAM: 0.15, Disk: 0.1}},
	} {
		c := cluster.New(spec.name, nil)
		c.AddMachines(20, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			log.Fatal(err)
		}
		if err := fleet.FillToUtilization(rng, spec.name, spec.target); err != nil {
			log.Fatal(err)
		}
	}

	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 5000})
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
	index := func(cluster string, d resource.Dimension) int {
		i, ok := reg.Index(resource.Pool{Cluster: cluster, Dim: d})
		if !ok {
			log.Fatalf("no pool %s/%v", cluster, d)
		}
		return i
	}
	hotCPU, coldCPU := index("hot", resource.CPU), index("cold", resource.CPU)
	fmt.Printf("reserve prices: hot/CPU=%.3f cold/CPU=%.3f (congestion-weighted, Section IV)\n",
		reserve[hotCPU], reserve[coldCPU])

	// The mobile team is indifferent between clusters; the anchored team
	// insists on "hot" (reengineering its stack would cost more than the
	// price premium).
	bundle := func(cluster string, cpu, ram, disk float64) resource.Vector {
		v := reg.Zero()
		v[index(cluster, resource.CPU)] = cpu
		v[index(cluster, resource.RAM)] = ram
		v[index(cluster, resource.Disk)] = disk
		return v
	}
	mobile := &core.Bid{
		User:    "mobile",
		Limit:   2000,
		Bundles: []resource.Vector{bundle("hot", 60, 200, 10), bundle("cold", 60, 200, 10)},
	}
	anchored := &core.Bid{
		User:    "anchored",
		Limit:   3000,
		Bundles: []resource.Vector{bundle("hot", 60, 200, 10)},
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
	// Output:
	// reserve prices: hot/CPU=2.027 cold/CPU=0.497 (congestion-weighted, Section IV)
	// auction settled in 1 rounds
	//   mobile    won   -> cold/CPU:+60 cold/Disk:+10 cold/RAM:+200 (paid 133.91)
	//   anchored  won   -> hot/CPU:+60 hot/Disk:+10 hot/RAM:+200 (paid 543.99)
	// the mobile team lands in the idle cluster; the anchored team pays the congestion premium —
	// "the market economy allows teams to act on those costs autonomously" (Section V.B)
	//   mobile quota in cold: cpu=60 ram=200 disk=10
	//   anchored quota in hot: cpu=60 ram=200 disk=10
}

// Example_arbitrage reproduces the Section V.C observation that
// sophisticated teams exploit price differentials between clusters:
// selling holdings where the market is expensive and rebuying where it is
// cheap, pocketing the spread.
func Example_arbitrage() {
	fleet := cluster.NewFleet()
	rng := rand.New(rand.NewSource(11))
	for _, spec := range []struct {
		name   string
		target cluster.Usage
	}{
		{"pricey", cluster.Usage{CPU: 0.88, RAM: 0.85, Disk: 0.85}},
		{"cheap", cluster.Usage{CPU: 0.2, RAM: 0.2, Disk: 0.15}},
	} {
		c := cluster.New(spec.name, nil)
		c.AddMachines(25, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			log.Fatal(err)
		}
		if err := fleet.FillToUtilization(rng, spec.name, spec.target); err != nil {
			log.Fatal(err)
		}
	}
	ex, err := market.NewExchange(fleet, market.Config{InitialBudget: 3000})
	if err != nil {
		log.Fatal(err)
	}
	for _, team := range []string{"trader", "grower"} {
		if err := ex.OpenAccount(team); err != nil {
			log.Fatal(err)
		}
	}
	reg := ex.Registry()
	set := func(v resource.Vector, cluster string, d resource.Dimension, q float64) {
		i, ok := reg.Index(resource.Pool{Cluster: cluster, Dim: d})
		if !ok {
			log.Fatalf("no pool %s/%v", cluster, d)
		}
		v[i] += q
	}

	// The trader owns 40 CPU / 100 RAM / 5 Disk in the pricey cluster
	// (given as quota) and places a single trade bundle: sell there, buy
	// the equivalent in the cheap cluster. Its limit of −100 says "only
	// if the swap nets me at least 100 dollars".
	fleet.Quotas().Grant("trader", "pricey", cluster.Usage{CPU: 40, RAM: 100, Disk: 5})
	swap := reg.Zero()
	set(swap, "pricey", resource.CPU, -40)
	set(swap, "pricey", resource.RAM, -100)
	set(swap, "pricey", resource.Disk, -5)
	set(swap, "cheap", resource.CPU, 40)
	set(swap, "cheap", resource.RAM, 100)
	set(swap, "cheap", resource.Disk, 5)
	trade := &core.Bid{User: "trader/swap", Bundles: []resource.Vector{swap}, Limit: -100}
	if _, err := ex.Submit("trader", trade); err != nil {
		log.Fatal(err)
	}

	// A growing team bids for capacity in the pricey cluster: it is the
	// demand that makes the trader's sale valuable.
	grow := reg.Zero()
	set(grow, "pricey", resource.CPU, 50)
	set(grow, "pricey", resource.RAM, 120)
	set(grow, "pricey", resource.Disk, 6)
	if _, err := ex.Submit("grower", &core.Bid{User: "grower", Bundles: []resource.Vector{grow}, Limit: 2500}); err != nil {
		log.Fatal(err)
	}

	before, _ := ex.Balance("trader")
	rec, _, err := ex.RunAuction()
	if err != nil {
		log.Fatal(err)
	}
	after, _ := ex.Balance("trader")

	fmt.Printf("auction settled in %d rounds; %d/%d orders filled\n",
		rec.Rounds, rec.Settled, rec.Submitted)
	for _, o := range ex.Orders() {
		fmt.Printf("  %-12s %-5s payment %8.2f\n", o.Bid.User, o.Status, o.Payment)
	}
	fmt.Printf("trader balance: %.2f -> %.2f (profit %.2f from the cluster price spread)\n",
		before, after, after-before)
	fmt.Printf("trader quota after swap: pricey=%v cheap=%v\n",
		fleet.Quotas().Granted("trader", "pricey"),
		fleet.Quotas().Granted("trader", "cheap"))
	fmt.Println("\"an increasing sophistication towards arbitrage opportunities\" (Section V.C)")
	// Output:
	// auction settled in 1 rounds; 2/2 orders filled
	//   trader/swap  won   payment  -217.85
	//   grower       won   payment   361.05
	// trader balance: 3000.00 -> 3217.85 (profit 217.85 from the cluster price spread)
	// trader quota after swap: pricey=cpu=0 ram=0 disk=0 cheap=cpu=40 ram=100 disk=5
	// "an increasing sophistication towards arbitrage opportunities" (Section V.C)
}

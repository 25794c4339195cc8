// Command auctionsim runs one ascending clock auction over bids written
// in the TBBL-style bidding language and prints the settlement: final
// uniform prices, winners, allocations, and payments.
//
// Usage:
//
//	auctionsim [-alpha 0.02] [-delta 0.25] [-epsilon 0] [-start 1.0]
//	           [-history] [-check] bids.txt
//
// The pool registry is inferred from the pools mentioned in the bids.
// With no file argument, bids are read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/chart"
	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

func main() {
	alpha := flag.Float64("alpha", 0.02, "price increment scale α")
	delta := flag.Float64("delta", 0.25, "per-round price cap δ")
	minStep := flag.Float64("minstep", 0.001, "minimum increment for pools with excess demand")
	epsilon := flag.Float64("epsilon", 0, "excess demand tolerance")
	startPrice := flag.Float64("start", 1.0, "uniform starting price for every pool")
	maxRounds := flag.Int("maxrounds", core.DefaultMaxRounds, "round limit")
	history := flag.Bool("history", false, "print per-round price history")
	check := flag.Bool("check", true, "verify the SYSTEM feasibility constraints")
	flag.Parse()

	if err := run(*alpha, *delta, *minStep, *epsilon, *startPrice, *maxRounds, *history, *check, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "auctionsim:", err)
		os.Exit(1)
	}
}

func run(alpha, delta, minStep, epsilon, startPrice float64, maxRounds int, history, check bool, args []string) error {
	var src []byte
	var err error
	switch len(args) {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(args[0])
	default:
		return fmt.Errorf("expected at most one bids file, got %d args", len(args))
	}
	if err != nil {
		return err
	}

	parsed, err := bidlang.ParseAll(string(src))
	if err != nil {
		return err
	}

	// Infer the registry from the pools mentioned across all bids.
	reg := resource.NewRegistry()
	for _, b := range parsed {
		for _, p := range b.Pools() {
			reg.Add(p)
		}
	}

	bids := make([]*core.Bid, 0, len(parsed))
	for _, b := range parsed {
		bundles, err := b.Flatten(reg)
		if err != nil {
			return err
		}
		bids = append(bids, &core.Bid{User: b.User, Bundles: bundles, Limit: b.Limit})
	}

	start := reg.Zero()
	for i := range start {
		start[i] = startPrice
	}
	a, err := core.NewAuction(reg, bids, core.Config{
		Start:         start,
		Policy:        core.Capped{Alpha: alpha, Delta: delta, MinStep: minStep},
		Epsilon:       epsilon,
		MaxRounds:     maxRounds,
		RecordHistory: history,
	})
	if err != nil {
		return err
	}
	buyers, sellers, traders := a.Classes()
	fmt.Printf("%d bids (%d buyers, %d sellers, %d traders) over %d pools\n",
		len(bids), buyers, sellers, traders, reg.Len())
	if traders > 0 {
		fmt.Println("note: traders present; convergence is not guaranteed (Section III.C.3)")
	}

	res, runErr := a.Run()
	if runErr != nil && res == nil {
		return runErr
	}
	if runErr != nil {
		fmt.Printf("WARNING: %v (stopping after %d rounds)\n", runErr, res.Rounds)
	} else {
		fmt.Printf("converged in %d rounds\n", res.Rounds)
	}

	if history {
		for _, h := range res.History {
			fmt.Printf("  t=%-4d active=%-3d prices=%s\n", h.T, h.ActiveBidders, fmtVec(h.Prices))
		}
	}

	// Final prices table.
	idx := make([]int, reg.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return reg.Pool(idx[a]).String() < reg.Pool(idx[b]).String() })
	var rows [][]string
	for _, i := range idx {
		rows = append(rows, []string{reg.Pool(i).String(), fmt.Sprintf("%.4f", res.Prices[i])})
	}
	fmt.Println()
	fmt.Print(chart.Table("Final uniform prices", []string{"Pool", "Price"}, rows))

	// Settlement table.
	rows = nil
	for i, b := range bids {
		status := "lost"
		alloc, pay := "-", "-"
		if res.IsWinner(i) {
			status = "won"
			alloc = reg.Format(res.Allocation(i))
			pay = fmt.Sprintf("%.4f", res.Payments[i])
		}
		rows = append(rows, []string{b.User, b.Class().String(), status, pay, alloc})
	}
	fmt.Println()
	fmt.Print(chart.Table("Settlement", []string{"User", "Class", "Status", "Payment", "Allocation"}, rows))

	if check {
		if v := core.CheckSystem(bids, res, 1e-6); len(v) != 0 {
			fmt.Println()
			for _, violation := range v {
				fmt.Println("VIOLATION:", violation.Error())
			}
			return fmt.Errorf("%d SYSTEM constraint violations", len(v))
		}
		fmt.Println("\nSYSTEM constraints (1)-(6) verified.")
	}
	return nil
}

func fmtVec(v resource.Vector) string {
	out := "["
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", x)
	}
	return out + "]"
}

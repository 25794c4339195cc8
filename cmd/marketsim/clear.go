package main

// marketsim clear runs one ascending clock auction over bids written in
// the TBBL-style bidding language and prints the settlement: final
// uniform prices, winners, allocations, and payments.
//
//	marketsim clear [-history] [bids.txt]
//
// The pool registry is inferred from the pools mentioned in the bids, and
// every pool's clock starts at 1. The clock steps by core.DefaultPolicy
// and the settlement is checked against the SYSTEM constraints. With no
// file argument, bids are read from stdin.

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

func runClear(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marketsim clear", flag.ContinueOnError)
	fs.SetOutput(stderr)
	history := fs.Bool("history", false, "print per-round price history")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if err := clearBids(stdout, stdin, *history, fs.Args()); err != nil {
		fmt.Fprintln(stderr, "marketsim clear:", err)
		return exitUsage
	}
	return exitOK
}

func clearBids(w io.Writer, stdin io.Reader, history bool, args []string) error {
	var src []byte
	var err error
	switch len(args) {
	case 0:
		src, err = io.ReadAll(stdin)
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
		start[i] = 1
	}
	a, err := core.NewAuction(reg, bids, core.Config{Start: start, RecordHistory: history})
	if err != nil {
		return err
	}
	buyers, sellers, traders := a.Classes()
	fmt.Fprintf(w, "%d bids (%d buyers, %d sellers, %d traders) over %d pools\n",
		len(bids), buyers, sellers, traders, reg.Len())
	if traders > 0 {
		fmt.Fprintln(w, "note: traders present; convergence is not guaranteed (Section III.C.3)")
	}

	res, runErr := a.Run()
	if runErr != nil {
		fmt.Fprintf(w, "WARNING: %v (stopping after %d rounds)\n", runErr, res.Rounds)
	} else {
		fmt.Fprintf(w, "converged in %d rounds\n", res.Rounds)
	}

	if history {
		for _, h := range res.History {
			fmt.Fprintf(w, "  t=%-4d active=%-3d prices=%s\n", h.T, h.ActiveBidders, fmtVec(h.Prices))
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
	fmt.Fprintln(w)
	fmt.Fprint(w, chart.Table("Final uniform prices", []string{"Pool", "Price"}, rows))

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
	fmt.Fprintln(w)
	fmt.Fprint(w, chart.Table("Settlement", []string{"User", "Class", "Status", "Payment", "Allocation"}, rows))

	if v := core.CheckSystem(bids, res, 1e-6); len(v) != 0 {
		fmt.Fprintln(w)
		for _, violation := range v {
			fmt.Fprintln(w, "VIOLATION:", violation.Error())
		}
		return fmt.Errorf("%d SYSTEM constraint violations", len(v))
	}
	fmt.Fprintln(w, "\nSYSTEM constraints (1)-(6) verified.")
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

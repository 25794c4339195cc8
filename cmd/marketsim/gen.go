package main

// marketsim gen emits a synthetic bid population in the bidding
// language, suitable for piping into marketsim clear:
//
//	marketsim gen -seed 7 -rounds 2 | marketsim clear
//
// Each round is one epoch of the paper-pilot scenario on the
// single-exchange backend: every order the epoch resolved, as bid. Teams
// in the congested r1 clusters offer quota back, so the population holds
// both bids and offers.

import (
	"flag"
	"fmt"
	"io"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/scenario"
)

func runGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marketsim gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	rounds := fs.Int("rounds", 1, "bid rounds to generate (later rounds are more sophisticated)")
	if err := fs.Parse(args); err != nil || !noArgs("gen", fs.Args(), stderr) {
		return exitUsage
	}
	if *rounds < 1 {
		fmt.Fprintf(stderr, "marketsim gen: -rounds must be at least 1, got %d\n", *rounds)
		return exitUsage
	}
	if err := gen(stdout, *seed, *rounds); err != nil {
		fmt.Fprintln(stderr, "marketsim gen:", err)
		return exitUsage
	}
	return exitOK
}

func gen(w io.Writer, seed int64, rounds int) error {
	rep, err := pilot(scenario.Config{Seed: seed, Epochs: rounds})
	if err != nil {
		return err
	}
	for _, s := range rep.Epochs {
		fmt.Fprintf(w, "# round %d: %d bids\n", s.Epoch+1, len(s.Orders))
		for _, o := range s.Orders {
			fmt.Fprint(w, bidTree(o))
		}
	}
	return nil
}

// bidTree writes an order as a bid-language tree: one all{} per bundle,
// under a oneof{} when the bid has several.
func bidTree(o scenario.Trade) *bidlang.Bid {
	alts := make([]bidlang.Node, len(o.Bundles))
	for k, bundle := range o.Bundles {
		var leaves []bidlang.Node
		for _, q := range bundle {
			if q.Qty != 0 {
				leaves = append(leaves, bidlang.Leaf{Pool: q.Pool, Qty: q.Qty})
			}
		}
		alts[k] = bidlang.All{Children: leaves}
	}
	root := alts[0]
	if len(alts) > 1 {
		root = bidlang.OneOf{Children: alts}
	}
	return &bidlang.Bid{User: o.User, Limit: o.Limit, Root: root}
}

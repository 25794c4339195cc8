package main

// marketsim gen emits a synthetic bid population in the bidding
// language, suitable for piping into marketsim clear:
//
//	marketsim gen -seed 7 -rounds 2 | marketsim clear
//
// The population is 40 teams over 8 clusters. Utilization is synthesized
// per cluster (the first 35% of clusters are congested) so the population
// contains both bids and offers.

import (
	"flag"
	"fmt"
	"io"
	"math/rand"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/core"
	"clustermarket/internal/resource"
	"clustermarket/internal/trace"
)

// The generated world's fixed shape.
const (
	genTeams    = 40
	genClusters = 8
	// genHot is the fraction of clusters that start congested.
	genHot = 0.35
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
	names := make([]string, genClusters)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i+1)
	}
	reg := resource.NewStandardRegistry(names...)
	g, err := trace.New(trace.Config{Seed: seed, Clusters: names, Teams: genTeams}, reg)
	if err != nil {
		return err
	}

	// Synthesize utilization: the first genHot fraction of clusters is
	// congested.
	rng := rand.New(rand.NewSource(seed + 100))
	util := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		if float64(i/3)/float64(genClusters) < genHot {
			util[i] = 0.8 + rng.Float64()*0.15
		} else {
			util[i] = 0.15 + rng.Float64()*0.3
		}
	}
	ref := reg.Zero()
	for i := range ref {
		ref[i] = 1.0
	}

	for round := 0; round < rounds; round++ {
		bids, err := g.Generate(trace.RoundInput{Utilization: util, ReferencePrices: ref})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# round %d: %d bids\n", round+1, len(bids))
		for _, gb := range bids {
			fmt.Fprint(w, bidTree(reg, gb.Bid))
		}
	}
	return nil
}

// bidTree writes a clock bid as a bid-language tree: one all{} per
// bundle, under a oneof{} when the bid has several.
func bidTree(reg *resource.Registry, b *core.Bid) *bidlang.Bid {
	alts := make([]bidlang.Node, len(b.Bundles))
	for k, bundle := range b.Bundles {
		var leaves []bidlang.Node
		for i, q := range bundle {
			if q != 0 {
				leaves = append(leaves, bidlang.Leaf{Pool: reg.Pool(i), Qty: q})
			}
		}
		alts[k] = bidlang.All{Children: leaves}
	}
	root := alts[0]
	if len(alts) > 1 {
		root = bidlang.OneOf{Children: alts}
	}
	return &bidlang.Bid{User: b.User, Limit: b.Limit, Root: root}
}

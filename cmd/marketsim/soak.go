package main

// marketsim soak runs the market through the scenario catalog: a
// deterministic, seed-reproducible multi-epoch run of one (or every)
// named scenario against the single-exchange and/or federated backend,
// with the shared invariant kernel checked after every epoch.
//
//	marketsim soak -scenario all -backend both -seed 42 -epochs 10
//
// The journaled-rerun, crash-recovery, chaos and stream-reconstruction
// checks on the same runs are tier-1 tests in internal/scenario.
//
// Exit codes:
//
//	0 — every run completed with every invariant intact
//	1 — usage error or engine failure
//	2 — an invariant was violated (the soak's reason to exist)

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"clustermarket/internal/scenario"
)

func runSoak(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marketsim soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scenario", "all",
		"scenario to run: one of "+strings.Join(scenario.Names(), ", ")+", or 'all'")
	backend := fs.String("backend", "both", "market backend: exchange, federation, or both")
	seed := fs.Int64("seed", 42, "seed; same seed, scenario, and backend reproduce the run bit-identically")
	epochs := fs.Int("epochs", 0, "epochs per run (0 uses each scenario's default)")
	verbose := fs.Bool("v", false, "print the per-epoch table for every run")
	if err := fs.Parse(args); err != nil || !noArgs("soak", fs.Args(), stderr) {
		return exitUsage
	}
	if *epochs < 0 {
		fmt.Fprintf(stderr, "marketsim soak: -epochs must not be negative, got %d\n", *epochs)
		return exitUsage
	}

	var scenarios []*scenario.Scenario
	if *name == "all" {
		scenarios = scenario.Catalog()
	} else {
		sc, err := scenario.Lookup(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitUsage
		}
		scenarios = []*scenario.Scenario{sc}
	}
	var kinds []string
	switch *backend {
	case "both":
		kinds = []string{"exchange", "federation"}
	case "exchange", "federation":
		kinds = []string{*backend}
	default:
		fmt.Fprintf(stderr, "marketsim: unknown backend %q (want exchange, federation, or both)\n", *backend)
		return exitUsage
	}

	cfg := scenario.Config{Seed: *seed, Epochs: *epochs}
	violations := 0
	for _, sc := range scenarios {
		for _, kind := range kinds {
			rep, err := runBackend(sc, kind, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "marketsim: %s/%s: %v\n", sc.Name, kind, err)
				return exitUsage
			}
			printReport(stdout, rep, *verbose)
			for _, v := range rep.Violations {
				fmt.Fprintf(stderr, "marketsim: INVARIANT VIOLATED: %s/%s: %s\n", sc.Name, kind, v)
			}
			violations += len(rep.Violations)
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "marketsim: %d invariant violation(s)\n", violations)
		return exitInvariant
	}
	return exitOK
}

// runBackend builds the backend for cfg, drives the scenario, and
// releases the backend's journals.
func runBackend(sc *scenario.Scenario, kind string, cfg scenario.Config) (*scenario.Report, error) {
	b, err := scenario.NewBackend(kind, cfg)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return scenario.Run(sc, b, cfg)
}

func printReport(w io.Writer, rep *scenario.Report, verbose bool) {
	var sub, auc, conv, settled, unsettled int
	for _, s := range rep.Epochs {
		sub += s.Submitted
		auc += s.Auctions
		conv += s.Converged
		settled += s.Settled
		unsettled += s.Unsettled
	}
	fmt.Fprintf(w, "%-18s %-10s seed=%-6d epochs=%-3d orders=%-5d auctions=%d/%d converged settled=%-5d unsettled=%-3d fingerprint=%s\n",
		rep.Scenario, rep.Backend, rep.Seed, len(rep.Epochs), sub, conv, auc, settled, unsettled, rep.Fingerprint()[:16])
	if !verbose {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "  epoch\tteams\tsubmitted\trejected\tstorm\tauctions\tconverged\tsettled\tmedian-premium\topen\tdark\tviolations")
	for _, s := range rep.Epochs {
		fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%d\t%s\t%d\n",
			s.Epoch, s.Teams, s.Submitted, s.Rejected, s.StormBids,
			s.Auctions, s.Converged, s.Settled, s.MedianPremium,
			s.OpenOrders, strings.Join(s.Dark, ","), s.Violations)
	}
	tw.Flush()
}

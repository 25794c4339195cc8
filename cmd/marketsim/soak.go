package main

// marketsim soak runs the market through the scenario catalog: a
// deterministic, seed-reproducible multi-epoch run of one (or every)
// named scenario against the single-exchange and/or federated backend,
// with the shared invariant kernel checked after every epoch.
//
//	marketsim soak -scenario all -backend both -seed 42 -epochs 10
//
// With -journal-dir set, each run is repeated on a journaled backend and
// its fingerprint must match the in-memory baseline bit for bit; with
// -crash-epoch N the journaled run is additionally killed without
// flushing before epoch N's settlement wave and resurrected from its
// WAL — the crash-recovery soak. Any fingerprint divergence exits 3.
//
// With -telemetry, every run carries a firehose subscriber and the
// report is reconstructed from the event stream alone: the
// reconstruction's fingerprint must equal the run's, proving the
// telemetry pipeline is lossless and complete (the telemetry soak). A
// stream divergence also exits 3.
//
// With -chaos (requires -journal-dir), each scenario/backend pair is
// additionally run twice under the same seeded-random fault schedule
// (-chaos-seed): disk faults under the journal, region partitions and
// gossip stalls in the federation, and a deliberately stalled telemetry
// subscriber. The two chaos runs must fingerprint-match each other —
// randomized fault injection must not break determinism — and every
// invariant must hold throughout (the chaos soak).
//
// Exit codes:
//
//	0 — every run completed with every invariant intact
//	1 — usage error or engine failure
//	2 — an invariant was violated (the soak's reason to exist)
//	3 — a journaled or crash-recovered run diverged from its baseline

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"clustermarket/internal/fault"
	"clustermarket/internal/scenario"
	"clustermarket/internal/telemetry"
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
	journalDir := fs.String("journal-dir", "",
		"repeat each run on a journaled backend under this directory and require fingerprint equality with the in-memory baseline")
	crashEpoch := fs.Int("crash-epoch", 0,
		"kill-and-resurrect the journaled run before this epoch's settlement wave (requires -journal-dir)")
	telem := fs.Bool("telemetry", false,
		"attach a firehose subscriber to every run and require the report to be reconstructible from the event stream alone")
	chaos := fs.Bool("chaos", false,
		"run each scenario/backend pair twice under a seeded-random fault schedule and require the two runs to fingerprint-match (requires -journal-dir)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the -chaos fault schedule")
	if err := fs.Parse(args); err != nil || !noArgs("soak", fs.Args(), stderr) {
		return exitUsage
	}
	if *crashEpoch > 0 && *journalDir == "" {
		fmt.Fprintln(stderr, "marketsim: -crash-epoch requires -journal-dir")
		return exitUsage
	}
	if *chaos && *journalDir == "" {
		fmt.Fprintln(stderr, "marketsim: -chaos requires -journal-dir (disk faults inject under the journal)")
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
	violations, diverged := 0, 0
	for _, sc := range scenarios {
		for _, kind := range kinds {
			rep, rec, err := runOne(sc, kind, cfg, *telem)
			if err != nil {
				fmt.Fprintf(stderr, "marketsim: %s/%s: %v\n", sc.Name, kind, err)
				return exitUsage
			}
			printReport(stdout, rep, *verbose)
			for _, v := range rep.Violations {
				fmt.Fprintf(stderr, "marketsim: INVARIANT VIOLATED: %s/%s: %s\n", sc.Name, kind, v)
			}
			violations += len(rep.Violations)
			diverged += checkStream(stdout, stderr, sc.Name, kind, "", rep, rec)

			if *journalDir == "" {
				continue
			}
			// The durable rerun: same scenario, same seed, journaled — and
			// optionally power-cycled mid-run. Its fingerprint must match
			// the in-memory baseline bit for bit. The rerun arms an
			// injector, so a scenario with a scripted fault schedule
			// (disk-fault, partition-storm) actually injects it here —
			// against the fault-free baseline, fingerprint equality IS the
			// faults-heal contract.
			jcfg := cfg
			jcfg.JournalDir = filepath.Join(*journalDir, sc.Name+"-"+kind)
			jcfg.CrashEpoch = *crashEpoch
			jcfg.Injector = fault.New()
			jrep, jrec, err := runOne(sc, kind, jcfg, *telem)
			if err != nil {
				fmt.Fprintf(stderr, "marketsim: %s/%s (journaled): %v\n", sc.Name, kind, err)
				return exitUsage
			}
			for _, v := range jrep.Violations {
				fmt.Fprintf(stderr, "marketsim: INVARIANT VIOLATED: %s/%s (journaled): %s\n", sc.Name, kind, v)
			}
			violations += len(jrep.Violations)
			label := "journaled"
			if *crashEpoch > 0 {
				label = fmt.Sprintf("journaled, crashed at epoch %d", *crashEpoch)
			}
			diverged += checkStream(stdout, stderr, sc.Name, kind, label, jrep, jrec)
			if jrep.Fingerprint() != rep.Fingerprint() {
				fmt.Fprintf(stderr, "marketsim: DIVERGED: %s/%s (%s): fingerprint %s, baseline %s\n",
					sc.Name, kind, label, jrep.Fingerprint()[:16], rep.Fingerprint()[:16])
				diverged++
			} else {
				fmt.Fprintf(stdout, "%-18s %-10s %s run matches baseline fingerprint %s\n",
					sc.Name, kind, label, rep.Fingerprint()[:16])
			}

			if *chaos {
				v, d, err := runChaosPair(stdout, stderr, sc, kind, cfg, *journalDir, *chaosSeed)
				if err != nil {
					fmt.Fprintf(stderr, "marketsim: %s/%s (chaos): %v\n", sc.Name, kind, err)
					return exitUsage
				}
				violations += v
				diverged += d
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "marketsim: %d invariant violation(s)\n", violations)
		return exitInvariant
	}
	if diverged > 0 {
		fmt.Fprintf(stderr, "marketsim: %d run(s) diverged from baseline\n", diverged)
		return exitDiverged
	}
	return exitOK
}

// runOne runs the scenario on a fresh backend for cfg. With telem set it
// additionally attaches a firehose subscriber for the duration of the run
// and returns the report reconstructed from the event stream alone; the
// subscriber is drained concurrently, so the run never drops an event
// however long it is, and is closed however the run ends.
func runOne(sc *scenario.Scenario, kind string, cfg scenario.Config, telem bool) (*scenario.Report, *scenario.Report, error) {
	if !telem {
		rep, err := runBackend(sc, kind, cfg)
		return rep, nil, err
	}
	fire := telemetry.NewFirehose()
	sub := fire.Subscribe(1 << 12)
	cfg.Telemetry = fire
	var events []telemetry.Event
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range sub.C {
			events = append(events, ev)
		}
	}()
	rep, err := runBackend(sc, kind, cfg)
	sub.Close()
	<-drained
	if err != nil {
		return rep, nil, err
	}
	if n := sub.Dropped(); n > 0 {
		return rep, nil, fmt.Errorf("telemetry subscriber dropped %d events", n)
	}
	rec, err := scenario.ReconstructReport(sc.Name, kind, cfg.Seed, events)
	if err != nil {
		return rep, nil, fmt.Errorf("reconstructing report from event stream: %w", err)
	}
	return rep, rec, nil
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

// runChaosPair runs the scenario twice under the same seeded-random
// fault schedule: each leg gets a fresh chaos injector, a fresh
// journal subdirectory, and a deliberately never-drained telemetry
// subscriber (the stall fault — publishers must stay non-blocking).
// The two legs must fingerprint-match each other: a chaos schedule is
// allowed to change outcomes relative to the fault-free run (breakers
// open, quotes go stale), but it must do so deterministically. Returns
// the invariant-violation and divergence counts.
func runChaosPair(stdout, stderr io.Writer, sc *scenario.Scenario, kind string, cfg scenario.Config, journalDir string, chaosSeed int64) (violations, diverged int, err error) {
	var reps [2]*scenario.Report
	for i := 0; i < 2; i++ {
		ccfg := cfg
		ccfg.JournalDir = filepath.Join(journalDir, fmt.Sprintf("%s-%s-chaos%d", sc.Name, kind, i))
		ccfg.Injector = fault.NewChaos(chaosSeed)
		fire := telemetry.NewFirehose()
		ccfg.Telemetry = fire
		ccfg.Injector.AttachTelemetry(fire)
		stall := fault.Stall(fire)
		b, berr := scenario.NewBackend(kind, ccfg)
		if berr != nil {
			stall.Close()
			return violations, diverged, berr
		}
		rep, rerr := scenario.Run(sc, b, ccfg)
		b.Close()
		stall.Close()
		if rerr != nil {
			return violations, diverged, rerr
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(stderr, "marketsim: INVARIANT VIOLATED: %s/%s (chaos leg %d): %s\n", sc.Name, kind, i, v)
		}
		violations += len(rep.Violations)
		reps[i] = rep
	}
	if reps[0].Fingerprint() != reps[1].Fingerprint() {
		fmt.Fprintf(stderr, "marketsim: DIVERGED: %s/%s (chaos): leg fingerprints %s vs %s\n",
			sc.Name, kind, reps[0].Fingerprint()[:16], reps[1].Fingerprint()[:16])
		return violations, diverged + 1, nil
	}
	fmt.Fprintf(stdout, "%-18s %-10s chaos runs match fingerprint %s\n", sc.Name, kind, reps[0].Fingerprint()[:16])
	return violations, diverged, nil
}

// checkStream compares a run's fingerprint with its stream
// reconstruction (when one was made), reporting a divergence the same
// way the journal soak does. It returns the number of divergences (0 or
// 1).
func checkStream(stdout, stderr io.Writer, name, kind, label string, rep, rec *scenario.Report) int {
	if rec == nil {
		return 0
	}
	what := "stream reconstruction"
	if label != "" {
		what = fmt.Sprintf("stream reconstruction (%s)", label)
	}
	if rec.Fingerprint() != rep.Fingerprint() {
		fmt.Fprintf(stderr, "marketsim: DIVERGED: %s/%s: %s fingerprint %s, run %s\n",
			name, kind, what, rec.Fingerprint()[:16], rep.Fingerprint()[:16])
		return 1
	}
	fmt.Fprintf(stdout, "%-18s %-10s %s matches run fingerprint %s\n", name, kind, what, rep.Fingerprint()[:16])
	return 0
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

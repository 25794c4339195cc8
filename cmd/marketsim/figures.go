package main

// marketsim figures regenerates every table and figure from the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	marketsim figures -run all
//	marketsim figures -run fig2
//	marketsim figures -run table1 -auctions 5
//	marketsim figures -run scaling
//
// Figures 6 and 7, Table I and the migration table read one sequence of
// -auctions auctions on one world (Figure 6 reads its first auction).

import (
	"flag"
	"fmt"
	"io"

	"clustermarket/internal/sim"
)

func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marketsim figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	what := fs.String("run", "all", "experiment: all|fig2|fig6|fig7|table1|scaling|baseline|migration|clockprog")
	seed := fs.Int64("seed", 2009, "random seed")
	auctions := fs.Int("auctions", 3, "sequential auctions for fig6/fig7/table1/migration")
	if err := fs.Parse(args); err != nil || !noArgs("figures", fs.Args(), stderr) {
		return exitUsage
	}
	if *auctions < 1 {
		fmt.Fprintf(stderr, "marketsim figures: -auctions must be at least 1, got %d\n", *auctions)
		return exitUsage
	}
	if err := figures(stdout, *what, sim.Config{Seed: *seed}, *auctions); err != nil {
		fmt.Fprintln(stderr, "marketsim figures:", err)
		return exitUsage
	}
	return exitOK
}

// figures writes the named experiment, or every one in the paper's order
// for "all", each under its own header.
func figures(w io.Writer, what string, cfg sim.Config, auctions int) error {
	// The figures that read the auction sequence share one, built on first
	// use.
	var seq *sim.Sequence
	fromSequence := func(render func(*sim.Sequence) error) func() error {
		return func() error {
			if seq == nil {
				s, err := sim.NewSequence(cfg, auctions)
				if err != nil {
					return err
				}
				seq = s
			}
			return render(seq)
		}
	}
	experiments := []struct {
		name, header string
		render       func() error
	}{
		{"fig2", "FIG2", func() error {
			sim.RenderFig2(w, sim.Fig2(100))
			return nil
		}},
		{"fig6", "FIG6", fromSequence(func(s *sim.Sequence) error {
			d := s.Fig6()
			sim.RenderFig6(w, d)
			hot, cold := d.CongestionPriceCorrelation(0.75, 0.4)
			fmt.Fprintf(w, "mean ratio: congested pools %.3f, idle pools %.3f\n", hot, cold)
			return nil
		})},
		{"fig7", "FIG7", fromSequence(func(s *sim.Sequence) error {
			d, err := s.Fig7()
			if err != nil {
				return err
			}
			sim.RenderFig7(w, d)
			return nil
		})},
		{"table1", "TABLE I", fromSequence(func(s *sim.Sequence) error {
			sim.RenderTable1(w, s.Table1())
			return nil
		})},
		{"scaling", "SCALING (Section III.C.4)", func() error {
			d, err := sim.Scaling(cfg.Seed)
			if err != nil {
				return err
			}
			sim.RenderScaling(w, d)
			return nil
		}},
		{"baseline", "BASELINE COMPARISON", func() error {
			rows, err := sim.Baseline(cfg)
			if err != nil {
				return err
			}
			sim.RenderBaseline(w, rows)
			return nil
		}},
		{"migration", "MIGRATION (Section V.B)", fromSequence(func(s *sim.Sequence) error {
			sim.RenderMigration(w, s.Migration())
			return nil
		})},
		{"clockprog", "CLOCK PROGRESSION (Figure 1 in action)", func() error {
			d, err := sim.ClockProgression(cfg)
			if err != nil {
				return err
			}
			sim.RenderClockProgression(w, d)
			return nil
		}},
	}
	matched := false
	for _, x := range experiments {
		if what != "all" && what != x.name {
			continue
		}
		matched = true
		fmt.Fprintf(w, "== %s ==\n", x.header)
		if err := x.render(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

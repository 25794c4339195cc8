// Command experiments regenerates every table and figure from the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	experiments -run all
//	experiments -run fig2
//	experiments -run fig6 -clusters 34 -teams 100
//	experiments -run fig7 -auctions 3
//	experiments -run table1 -auctions 3
//	experiments -run scaling
//	experiments -run baseline
//	experiments -run migration -auctions 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"clustermarket/internal/sim"
)

func main() {
	runWhat := flag.String("run", "all", "experiment: all|fig2|fig6|fig7|table1|scaling|baseline|migration|clockprog")
	seed := flag.Int64("seed", 2009, "random seed")
	clusters := flag.Int("clusters", 34, "clusters in the scenario world")
	machines := flag.Int("machines", 40, "machines per cluster")
	teams := flag.Int("teams", 100, "engineering teams")
	auctions := flag.Int("auctions", 3, "sequential auctions for fig7/table1/migration")
	flag.Parse()

	cfg := sim.Config{
		Seed:               *seed,
		Clusters:           *clusters,
		MachinesPerCluster: *machines,
		Teams:              *teams,
	}
	if err := run(os.Stdout, *runWhat, cfg, *auctions); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, what string, cfg sim.Config, auctions int) error {
	all := what == "all"
	matched := false

	if all || what == "fig2" {
		matched = true
		fmt.Fprintln(w, "== FIG2 ==")
		sim.RenderFig2(w, sim.Fig2(100))
		fmt.Fprintln(w)
	}
	if all || what == "fig6" {
		matched = true
		fmt.Fprintln(w, "== FIG6 ==")
		d, err := sim.Fig6(cfg)
		if err != nil {
			return err
		}
		sim.RenderFig6(w, d)
		hot, cold := d.CongestionPriceCorrelation(0.75, 0.4)
		fmt.Fprintf(w, "mean ratio: congested pools %.3f, idle pools %.3f\n\n", hot, cold)
	}
	if all || what == "fig7" {
		matched = true
		fmt.Fprintln(w, "== FIG7 ==")
		d, err := sim.Fig7(cfg, auctions)
		if err != nil {
			return err
		}
		sim.RenderFig7(w, d)
		fmt.Fprintln(w)
	}
	if all || what == "table1" {
		matched = true
		fmt.Fprintln(w, "== TABLE I ==")
		rows, err := sim.Table1(cfg, auctions)
		if err != nil {
			return err
		}
		sim.RenderTable1(w, rows)
		fmt.Fprintln(w)
	}
	if all || what == "scaling" {
		matched = true
		fmt.Fprintln(w, "== SCALING (Section III.C.4) ==")
		d, err := sim.Scaling(cfg.Seed)
		if err != nil {
			return err
		}
		sim.RenderScaling(w, d)
		fmt.Fprintln(w)
	}
	if all || what == "baseline" {
		matched = true
		fmt.Fprintln(w, "== BASELINE COMPARISON ==")
		rows, err := sim.Baseline(cfg)
		if err != nil {
			return err
		}
		sim.RenderBaseline(w, rows)
		fmt.Fprintln(w)
	}
	if all || what == "migration" {
		matched = true
		fmt.Fprintln(w, "== MIGRATION (Section V.B) ==")
		rows, err := sim.Migration(cfg, auctions)
		if err != nil {
			return err
		}
		sim.RenderMigration(w, rows)
		fmt.Fprintln(w)
	}
	if all || what == "clockprog" {
		matched = true
		fmt.Fprintln(w, "== CLOCK PROGRESSION (Figure 1 in action) ==")
		d, err := sim.ClockProgression(cfg, 3)
		if err != nil {
			return err
		}
		sim.RenderClockProgression(w, d)
		fmt.Fprintln(w)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

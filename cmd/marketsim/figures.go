package main

// marketsim figures regenerates every table and figure from the paper's
// evaluation (see DESIGN.md, "Experiment index"):
//
//	marketsim figures -run all
//	marketsim figures -run fig2
//	marketsim figures -run table1 -auctions 5
//
// Every figure but Figure 2 is a view of one run of the paper-pilot
// scenario on the single-exchange backend, -auctions epochs long
// (scenario/figures.go); Figure 2 plots internal/reserve's curves.

import (
	"flag"
	"fmt"
	"io"

	"clustermarket/internal/chart"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/scenario"
)

func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marketsim figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	what := fs.String("run", "all", "experiment: all|fig2|fig6|fig7|table1|baseline|migration|clockprog")
	seed := fs.Int64("seed", 2009, "random seed")
	auctions := fs.Int("auctions", 4, "epochs of the paper-pilot run the figures read")
	if err := fs.Parse(args); err != nil || !noArgs("figures", fs.Args(), stderr) {
		return exitUsage
	}
	if *auctions < 1 {
		fmt.Fprintf(stderr, "marketsim figures: -auctions must be at least 1, got %d\n", *auctions)
		return exitUsage
	}
	if err := figures(stdout, *what, scenario.Config{Seed: *seed, Epochs: *auctions}); err != nil {
		fmt.Fprintln(stderr, "marketsim figures:", err)
		return exitUsage
	}
	return exitOK
}

// pilot runs the paper-pilot scenario for cfg on the single-exchange
// backend.
func pilot(cfg scenario.Config) (*scenario.Report, error) {
	sc, err := scenario.Lookup("paper-pilot")
	if err != nil {
		return nil, err
	}
	b, err := scenario.NewBackend("exchange", cfg)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return scenario.Run(sc, b, cfg)
}

// figures writes the named experiment, or every one in the paper's order
// for "all", each under its own header.
func figures(w io.Writer, what string, cfg scenario.Config) error {
	// table writes one chart.Table whose rows format the view's n rows.
	table := func(title string, header []string, n int, row func(i int) []string) {
		cells := make([][]string, n)
		for i := range cells {
			cells[i] = row(i)
		}
		fmt.Fprint(w, chart.Table(title, header, cells))
	}
	experiments := []struct {
		name, header string
		render       func(*scenario.Report) error
	}{
		{"fig2", "FIG2", func(*scenario.Report) error {
			var series []chart.Series
			for _, c := range reserve.Figure2(100) {
				s := chart.Series{Name: c.Name}
				for _, p := range c.Points {
					s.X, s.Y = append(s.X, p.Utilization), append(s.Y, p.Multiple)
				}
				series = append(series, s)
			}
			fmt.Fprint(w, chart.LinePlot(
				"Figure 2: utilization-weighted pricing curves (x: utilization %, y: price multiple)",
				72, 20, series...))
			return nil
		}},
		{"fig6", "FIG6", func(r *scenario.Report) error {
			rows := r.Fig6()
			byDim := map[resource.Dimension][]chart.Bar{}
			for _, row := range rows {
				byDim[row.Pool.Dim] = append(byDim[row.Pool.Dim], chart.Bar{
					Label: fmt.Sprintf("%s (psi=%.0f%%)", row.Pool.Cluster, 100*row.Util),
					Value: row.Ratio,
				})
			}
			for _, dim := range resource.StandardDimensions {
				fmt.Fprint(w, chart.BarChart(
					fmt.Sprintf("Figure 6 (%s): market price / former fixed price, '|' marks 1.0", dim),
					48, 1.0, byDim[dim]))
				fmt.Fprintln(w)
			}
			hot, idle := scenario.CongestionPriceCorrelation(rows)
			fmt.Fprintf(w, "mean ratio: congested pools %.3f, idle pools %.3f\n", hot, idle)
			return nil
		}},
		{"fig7", "FIG7", func(r *scenario.Report) error {
			groups, err := r.Fig7()
			if err != nil {
				return err
			}
			var boxes []chart.BoxGroup
			for _, g := range groups {
				boxes = append(boxes, chart.BoxGroup{Label: fmt.Sprintf("%s %ss", g.Dim, g.Side), Box: g.Box})
			}
			fmt.Fprint(w, chart.BoxplotChart(
				"Figure 7: utilization percentiles of resources in settled transactions", 24, 0, 100, boxes))
			return nil
		}},
		{"table1", "TABLE I", func(r *scenario.Report) error {
			rows := r.Table1()
			table("Table I: bid premium statistics",
				[]string{"Auction", "Median of gamma_u", "Mean of gamma_u", "% Settled"}, len(rows), func(i int) []string {
					x := rows[i]
					return []string{fmt.Sprint(x.Auction), fmt.Sprintf("%.4f", x.Median), fmt.Sprintf("%.4f", x.Mean),
						fmt.Sprintf("%.1f%%", x.SettledPct)}
				})
			return nil
		}},
		{"baseline", "BASELINE COMPARISON", func(r *scenario.Report) error {
			rows, err := r.Baseline()
			if err != nil {
				return err
			}
			table("Allocation mechanism comparison",
				[]string{"Mechanism", "Shortage", "Surplus", "Util spread (CV)", "Requests served"}, len(rows), func(i int) []string {
					x := rows[i]
					return []string{x.Mechanism, fmt.Sprintf("%.1f%%", 100*x.Shortage), fmt.Sprintf("%.1f%%", 100*x.Surplus),
						fmt.Sprintf("%.3f", x.UtilSpread), fmt.Sprintf("%.1f%%", x.SettledPct)}
				})
			return nil
		}},
		{"migration", "MIGRATION (Section V.B)", func(r *scenario.Report) error {
			rows := r.Migration()
			table("Demand migration across auctions",
				[]string{"Auction", "Bought in idle pools", "Bought in congested pools", "Teams moved", "Util spread (CV)"},
				len(rows), func(i int) []string {
					x := rows[i]
					return []string{fmt.Sprint(x.Auction), fmt.Sprintf("%.1f%%", 100*x.ColdShare),
						fmt.Sprintf("%.1f%%", 100*x.HotShare), fmt.Sprint(x.Movers), fmt.Sprintf("%.3f", x.UtilSpread)}
				})
			return nil
		}},
		{"clockprog", "CLOCK PROGRESSION (Figure 1 in action)", func(r *scenario.Report) error {
			d, err := r.ClockProgression()
			if err != nil {
				return err
			}
			var series []chart.Series
			for _, s := range d.Series {
				cs := chart.Series{Name: s.Pool.String()}
				for t, p := range s.Prices {
					cs.X, cs.Y = append(cs.X, float64(t)), append(cs.Y, p)
				}
				series = append(series, cs)
			}
			fmt.Fprint(w, chart.LinePlot(fmt.Sprintf(
				"Clock progression: price per round over %d rounds (most vs least contested pools)", d.Rounds),
				72, 20, series...))
			fmt.Fprintf(w, "total positive excess demand: first round %.1f, final round %.1f\n",
				d.Excess[0], d.Excess[len(d.Excess)-1])
			return nil
		}},
	}
	var rep *scenario.Report
	matched := false
	for _, x := range experiments {
		if what != "all" && what != x.name {
			continue
		}
		matched = true
		// Every view but Figure 2 reads the one run, made on first use.
		if rep == nil && x.name != "fig2" {
			r, err := pilot(cfg)
			if err != nil {
				return err
			}
			rep = r
		}
		fmt.Fprintf(w, "== %s ==\n", x.header)
		if err := x.render(rep); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

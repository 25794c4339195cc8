package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // the spread between runs is wider than the bound
)

// row is one (workload, end-to-end metric) pairing of a comparison.
type row struct {
	workload string
	def      metricDef
	a, b     metricOut
	worse    float64 // by how much b is worse than a, as a share of a; negative when better
	allowed  float64 // the bound as a share of a, after the absolute floor
	spread   float64
	verdict  verdict
}

// judge compares base a with change b under the metric's bound.
//
// b is worse than a by (b−a)/a in the metric's bad direction. Beyond the
// bound that is a regression. When the runs of either side spread wider
// than the bound, the medians cannot settle the question: the row is
// unresolved, unless every run of b reads better than every run of a.
func judge(def metricDef, a, b metricOut) row {
	r := row{def: def, a: a, b: b, verdict: ok}
	if def.noBound {
		return r
	}
	diff := b.Value - a.Value
	if def.higher {
		diff = -diff
	}
	base := math.Abs(a.Value)
	if base == 0 {
		// Nothing to take a share of: any worsening of a zero is a
		// regression (fail_share, lost_acks).
		if diff > def.floor {
			r.worse, r.verdict = math.Inf(1), regressed
		}
		return r
	}
	r.worse = diff / base
	r.allowed = math.Max(def.bound, def.floor/base)
	r.spread = math.Max(spread(a.Samples), spread(b.Samples))
	switch {
	case r.spread > r.allowed && !allBetter(def, a.Samples, b.Samples):
		r.verdict = unresolved
	case r.worse > r.allowed:
		r.verdict = regressed
	}
	return r
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if def.higher && y <= x || !def.higher && y >= x {
				return false
			}
		}
	}
	return true
}

func compareRows(a, b *suiteOut) []row {
	var rows []row
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, d := range endToEnd {
				ma, okA := wa.EndToEnd[d.name]
				mb, okB := wb.EndToEnd[d.name]
				if !okA || !okB {
					continue
				}
				r := judge(d, ma, mb)
				r.workload = wa.Name
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// compareSuites prints one row per workload and end-to-end metric and
// returns the number of regressed rows.
func compareSuites(w io.Writer, a, b *suiteOut) (regressions int) {
	fmt.Fprintf(w, "base %s (seed %d)  vs  change %s (seed %d)\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %-22s %8s %8s  %s\n",
		"workload", "metric", "base", "change", "change/base", "bound", "spread", "verdict")
	for _, r := range compareRows(a, b) {
		ratio, bound := "-", "none"
		if r.a.Value != 0 {
			ratio = fmt.Sprintf("%.4f of %.5g %s", r.b.Value/r.a.Value, r.a.Value, r.def.unit)
		}
		switch {
		case r.def.noBound:
		case r.allowed > r.def.bound:
			bound = fmt.Sprintf("%g %s", r.def.floor, r.def.unit) // the absolute floor is the larger allowance
		default:
			bound = fmt.Sprintf("%.1f%%", r.allowed*100)
		}
		fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %-22s %8s %7.1f%%  %s\n",
			r.workload, r.def.name, r.a.Value, r.b.Value, ratio, bound, r.spread*100, r.verdict)
		if r.verdict == regressed {
			regressions++
		}
	}
	return regressions
}

// readSuites reads one side of a comparison: one result file, or several
// separated by commas, merged into one set of runs.
func readSuites(paths string) (*suiteOut, error) {
	var runs []*suiteOut
	for _, path := range strings.Split(paths, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s suiteOut
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &s)
	}
	return mergeRuns(runs), nil
}

// mergeRuns turns several runs of the suite into one set: each metric's
// samples are the runs' values and its value their median, so that the
// spread a comparison sees is the spread between runs. One run is
// returned as it is, with its per-repetition samples.
func mergeRuns(runs []*suiteOut) *suiteOut {
	if len(runs) == 1 {
		return runs[0]
	}
	out := *runs[0]
	out.Workloads = nil
	for i, w0 := range runs[0].Workloads {
		w := w0
		w.EndToEnd = map[string]metricOut{}
		for name, m := range w0.EndToEnd {
			m.Samples = nil
			for _, r := range runs {
				if i < len(r.Workloads) && r.Workloads[i].Name == w0.Name {
					if v, ok := r.Workloads[i].EndToEnd[name]; ok {
						m.Samples = append(m.Samples, v.Value)
					}
				}
			}
			m.Value = median(m.Samples)
			w.EndToEnd[name] = m
		}
		for _, r := range runs[1:] {
			if i < len(r.Workloads) {
				w.Correct = w.Correct && r.Workloads[i].Correct
			}
		}
		out.Workloads = append(out.Workloads, w)
	}
	return &out
}

// Command benchmark measures an order's whole life through the market,
// end to end on five workloads and layer by layer from outside. See
// README.md for what is measured and why, and ../BENCHMARK.json for the
// contract a driver runs it under:
//
//	go run -C benchmark . [-seed N] [-workload NAME] [-seconds S] [-trace 0|1] [-out FILE]
//	go run -C benchmark . -compare A.json[,A2.json,…] B.json[,B2.json,…]
//	go run -C benchmark . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric, its unit and which way is better.
type metricDef struct {
	name, unit string
	higher     bool
	// bound is the share of the base median by which an end-to-end metric
	// may get worse before -compare calls it regressed; floor is an
	// absolute allowance that applies when it is the larger of the two.
	// bound 0 with floor 0 means any worsening is a regression; noBound
	// metrics are reported and never gated.
	bound, floor float64
	noBound      bool
	// everywhere marks the end-to-end metrics every workload defines.
	// Those are the ones BENCHMARK.json lists as end_to_end, because a
	// driver expects each of them from each workload; the others it lists
	// with the per-layer metrics, and -compare gates them all the same.
	everywhere bool
}

// The timing bounds are the 25% one run on a shared two-core box can
// resolve (README, "Sizing evidence"); counts and the heap keep tight ones.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.05, everywhere: true},
	{name: "orders_per_s", unit: "1/s", higher: true, bound: 0.25, everywhere: true},
	{name: "submit_p50_us", unit: "us", bound: 0.25, everywhere: true},
	{name: "submit_p99_us", unit: "us", bound: 0.25},
	{name: "epoch_p50_ms", unit: "ms", bound: 0.25, everywhere: true},
	{name: "epoch_p90_ms", unit: "ms", bound: 0.25},
	{name: "cpu_s_per_korder", unit: "s", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", bound: 0.05, everywhere: true},
	{name: "max_rate_ok_per_s", unit: "1/s", higher: true, noBound: true},
	{name: "fsyncs_per_order", unit: "count", bound: 0.02},
	{name: "wal_bytes_per_order", unit: "B", bound: 0.01},
	{name: "recover_s", unit: "s", bound: 0.25},
	{name: "fail_share", unit: "ratio"},
	{name: "lost_acks", unit: "count"},
}

func lower(name, unit string) metricDef  { return metricDef{name: name, unit: unit} }
func higher(name, unit string) metricDef { return metricDef{name: name, unit: unit, higher: true} }

// perLayer are the metrics of single layers, measured in the traced pass.
// Direction says which way an optimisation of that layer should move the
// number; counts of work done are "lower" (less work for the same orders).
var perLayer = func() []metricDef {
	out := []metricDef{
		lower("market.submit.calls", "count"), lower("market.submit.busy_s", "s"),
		lower("market.submit.p50_us", "us"), lower("market.submit.p99_us", "us"),
		lower("market.submit.rejected", "count"),
		lower("market.run_auction.calls", "count"), lower("market.run_auction.busy_s", "s"),
		lower("market.run_auction.p50_ms", "ms"), lower("market.settle.self_p50_ms", "ms"),
		lower("market.open_orders.p50_ms", "ms"), lower("market.reserve_prices.p50_us", "us"),
		lower("market.preliminary_prices.p50_ms", "ms"), lower("market.orders_tail.p50_us", "us"),
		higher("market.won_share", "ratio"), lower("market.noconv_epochs", "count"),
		lower("core.new_auction.p50_ms", "ms"), lower("core.run.p50_ms", "ms"),
		lower("core.rounds_per_epoch", "count"), lower("core.ns_per_round", "ns"),
		higher("core.components", "count"), lower("core.bids_per_epoch", "count"),
		higher("core.replay_match", "ratio"),
		lower("journal.appends", "count"), lower("journal.bytes", "B"), lower("journal.fsyncs", "count"),
		lower("journal.snapshots", "count"), higher("journal.records_per_sync", "count"),
		lower("journal.fs.write_calls", "count"), lower("journal.fs.write_bytes", "B"),
		lower("journal.fs.write_busy_s", "s"), lower("journal.fs.sync_calls", "count"),
		lower("journal.fs.sync_busy_s", "s"), lower("journal.fs.sync_share", "ratio"),
		lower("journal.fs.snapshot_bytes", "B"), lower("journal.open.s", "s"),
		lower("market.recover.s", "s"), lower("journal.recovered_records", "count"),
		lower("federation.submit.p50_us", "us"), lower("federation.tick.p50_ms", "ms"),
		lower("federation.settle_region.p50_ms", "ms"), lower("federation.settle_region.max_share", "ratio"),
		lower("federation.failovers_per_order", "count"), lower("federation.cross_region_share", "ratio"),
		lower("webui.handler.calls", "count"), lower("webui.handler.busy_s", "s"),
		lower("webui.handler.submit_p50_us", "us"), lower("webui.handler.read_p50_us", "us"),
		lower("webui.stack.submit_p50_us", "us"), lower("webui.closed.submit_p99_us", "us"),
	}
	for _, rate := range httpRates {
		p := fmt.Sprintf("webui.open.r%d.", rate)
		out = append(out,
			lower(p+"submit_p50_us", "us"), lower(p+"submit_p99_us", "us"), lower(p+"read_p99_us", "us"),
			higher(p+"achieved_per_s", "1/s"), lower(p+"gen_late_p50_us", "us"), lower(p+"gen_late_max_ms", "ms"),
			higher(p+"met_limit", "count"))
	}
	return append(out,
		lower("telemetry.published", "count"), lower("telemetry.events_per_order", "count"),
		lower("telemetry.dropped", "count"),
		lower("runtime.gc_cycles", "count"), lower("runtime.gc_pause_total_ms", "ms"),
		higher("runtime.whole_run_orders_per_s", "1/s"),
		lower("trace.overhead_share", "ratio"), higher("trace.layer_sum_share", "ratio"))
}()

// metricOut is one reported number. N is the sample count behind it;
// Samples are the per-repetition values the median was taken over (for a
// one-repetition workload, the single value).
type metricOut struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type workloadOut struct {
	Name      string               `json:"name"`
	Reps      int                  `json:"repetitions"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Correct   bool                 `json:"correct"`
	Problems  []string             `json:"problems,omitempty"`
	Shape     map[string]float64   `json:"shape"`
	EndToEnd  map[string]metricOut `json:"end_to_end"`
	PerLayer  map[string]metricOut `json:"per_layer,omitempty"`
	TraceFile string               `json:"trace_file,omitempty"`
	Seconds   float64              `json:"wall_seconds"`
}

type suiteOut struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workers    int           `json:"submitters"`
	Seed       int64         `json:"seed"`
	Window     float64       `json:"window_seconds"`
	Traced     bool          `json:"traced"`
	Workloads  []workloadOut `json:"workloads"`
}

func newSuite(seed int64, seconds float64, traced bool) *suiteOut {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &suiteOut{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: submitters(), Seed: seed, Window: seconds, Traced: traced}
}

// submitters is W, the closed-loop population: submitter goroutines, or
// HTTP connections. Eight is the concurrency ROADMAP item 2 sets its
// durable-throughput bar at, and it is fixed rather than min(nproc, 4): a
// result should describe the same offered load on any box, and with four or
// fewer contenders the journal lock's hand-off order, and with it the
// durable submit median, changed from run to run (README, sizing evidence).
func submitters() int { return 8 }

// selfcheckRuns is the number of suite runs in each of -selfcheck's two
// sets: a single run on a shared box can be off by a third (README, sizing
// evidence), a median of three is not.
const selfcheckRuns = 3

// baseWindow is the measuring window the stated workload sizes fill.
const baseWindow = 10.0

// runWorkload measures one workload for about seconds seconds.
//
// Untraced, a repeated workload runs fixed-size repetitions in fresh
// worlds until the window is used, and reports per metric the median
// across them; a single workload runs one repetition scaled to the window.
// Traced, every workload runs two repetitions, one without and one with
// the span recorder, and reports the traced one's layer metrics and the
// difference between the two as the tracing overhead.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) workloadOut {
	start := time.Now()
	out := workloadOut{Name: w.name, Correct: true, Shape: map[string]float64{}, EndToEnd: map[string]metricOut{}}
	fail := func(format string, args ...any) {
		out.Correct = false
		out.Problems = append(out.Problems, fmt.Sprintf(format, args...))
	}
	cfg := runCfg{seed: seed, workers: submitters(), scale: 1}
	if w.single {
		cfg.scale = seconds / baseWindow
		if traced {
			// Two repetitions share the window; 5/8 rather than 1/2 keeps
			// a snapshot inside durable-planet's shorter run.
			cfg.scale *= 0.625
		}
	}

	var reps []*repResult
	run := func(rec *recorder) *repResult {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r, err := w.rep(cfg, rec)
		if err != nil {
			fail("%s repetition %d: %v", w.name, len(reps), err)
		}
		if r == nil {
			return nil
		}
		runtime.ReadMemStats(&ms1)
		r.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		r.layer["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		for _, p := range checkBands(w, r.shape) {
			fail("repetition %d: %s", len(reps), p)
		}
		reps = append(reps, r)
		return r
	}

	if traced {
		base := run(nil)
		rec := newRecorder()
		tr := run(rec)
		if base != nil && tr != nil {
			tr.layer["trace.overhead_share"] = tr.cycle/base.cycle - 1
			path, err := writeSpans("out", w.name, tr.spans)
			if err != nil {
				fail("%s: write trace: %v", w.name, err)
			}
			out.TraceFile = path
			out.PerLayer = map[string]metricOut{}
			for _, d := range perLayer {
				if v, ok := tr.layer[d.name]; ok {
					out.PerLayer[d.name] = metricOut{Value: v, Unit: d.unit, N: tr.n[d.name]}
				}
			}
			// Every layer metric a repetition reports must be a declared
			// one, or it would silently never reach a reader.
			for name := range tr.layer {
				if _, ok := out.PerLayer[name]; !ok {
					fail("%s: undeclared layer metric %s", w.name, name)
				}
			}
			reps = []*repResult{tr}
		}
	} else {
		for i := 0; ; i++ {
			if run(nil) == nil || w.single {
				break
			}
			if elapsed := time.Since(start).Seconds(); elapsed+elapsed/float64(i+1) > seconds {
				break
			}
		}
	}

	out.Reps = len(reps)
	var ticks []float64
	for i, r := range reps {
		out.Attempted += r.attempted
		out.Failed += r.failed
		ticks = append(ticks, r.tickMs...)
		if w.exact && (r.won != reps[0].won || r.lost != reps[0].lost) {
			fail("%s: repetition %d settled %d won / %d lost, repetition 0 %d / %d: same seed, different outcome",
				w.name, i, r.won, r.lost, reps[0].won, reps[0].lost)
		}
		for k, v := range r.shape {
			out.Shape[k] = v
		}
	}
	if len(reps) == 0 {
		out.Seconds = time.Since(start).Seconds()
		return out
	}
	for _, d := range endToEnd {
		var samples []float64
		n := 0
		for _, r := range reps {
			if v, ok := r.e2e[d.name]; ok {
				samples = append(samples, v)
				n += r.n[d.name]
			}
		}
		if len(samples) > 0 {
			out.EndToEnd[d.name] = metricOut{Value: median(samples), Unit: d.unit, N: n, Samples: samples}
		}
	}
	// The tail of the tick is taken over the epochs of all repetitions
	// pooled, and only where ten samples lie beyond it.
	if !w.single && supported(len(ticks), 0.9) {
		out.EndToEnd["epoch_p90_ms"] = metricOut{Value: quantile(ticks, 0.9), Unit: "ms", N: len(ticks)}
	}
	out.EndToEnd["fail_share"] = metricOut{Value: float64(out.Failed) / float64(max(out.Attempted, 1)), Unit: "ratio", N: out.Attempted}
	if out.Failed > 0 {
		fail("%s: %d of %d operations failed", w.name, out.Failed, out.Attempted)
	}
	out.Seconds = time.Since(start).Seconds()
	return out
}

// printMetric prints one metric with its unit and, beside every
// percentile or median, the number of samples behind it.
func printMetric(name string, m metricOut) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf("n=%d", m.N)
	}
	fmt.Printf("  %-34s %14.6g %-6s %s\n", name, m.Value, m.Unit, n)
}

func printWorkload(w workloadOut) {
	fmt.Printf("\n== %s  (%d repetitions, %d operations, %d failed, %.1f s)\n", w.Name, w.Reps, w.Attempted, w.Failed, w.Seconds)
	for _, d := range endToEnd {
		if m, ok := w.EndToEnd[d.name]; ok {
			printMetric(d.name, m)
		}
	}
	if w.PerLayer != nil {
		fmt.Println("  -- per layer (traced pass)")
		for _, d := range perLayer {
			if m, ok := w.PerLayer[d.name]; ok {
				printMetric(d.name, m)
			}
		}
		fmt.Printf("  spans: %s\n", w.TraceFile)
	}
	keys := make([]string, 0, len(w.Shape))
	for k := range w.Shape {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("  shape:")
	for _, k := range keys {
		fmt.Printf(" %s=%.4g", k, w.Shape[k])
	}
	fmt.Println()
	for _, p := range w.Problems {
		fmt.Printf("  FAILED %s\n", p)
	}
}

// driverLine is the one-object result a driver reads from the last line
// of standard output: every end_to_end metric of BENCHMARK.json when
// untraced, every per_layer metric when traced. A per-layer metric the
// workload does not define reads 0 there, because the driver wants each
// name from each workload; the tables above omit it.
func driverLine(w workloadOut, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if traced {
		for _, d := range perLayerContract() {
			m := w.PerLayer[d.name]
			if e, ok := w.EndToEnd[d.name]; ok {
				m = e
			}
			metrics[d.name] = mv{m.Value, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.everywhere {
				metrics[d.name] = mv{w.EndToEnd[d.name].Value, d.unit}
			}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, max(w.Attempted, 1), w.Failed, metrics})
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	return string(raw)
}

// perLayerContract is BENCHMARK.json's per_layer list: the layer metrics,
// then the end-to-end metrics that only some workloads define.
func perLayerContract() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		if !d.everywhere {
			out = append(out, d)
		}
	}
	return out
}

func runSuite(names []string, seed int64, seconds float64, traced bool) *suiteOut {
	s := newSuite(seed, seconds, traced)
	for _, name := range names {
		w := runWorkload(findWorkload(name), seed, seconds, traced)
		printWorkload(w)
		s.Workloads = append(s.Workloads, w)
	}
	return s
}

func (s *suiteOut) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", baseWindow, "measuring window per workload, in seconds")
		trace     = flag.Int("trace", 0, "1: traced pass, reports the per-layer metrics and writes out/trace-<workload>.json")
		outFile   = flag.String("out", "", "write the results as JSON to this file")
		compare   = flag.Bool("compare", false, "compare two sets of result files: -compare A.json[,A2.json] B.json[,B2.json]")
		selfcheck = flag.Bool("selfcheck", false, "run the suite six times, alternating between two sets, and require the sets to agree within the bounds")
	)
	flag.Parse()
	all := make([]string, len(workloads))
	for i := range workloads {
		all[i] = workloads[i].name
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json[,A2.json,...] B.json[,B2.json,...]")
			os.Exit(2)
		}
		a, err := readSuites(flag.Arg(0))
		if err == nil {
			var b *suiteOut
			if b, err = readSuites(flag.Arg(1)); err == nil {
				if compareSuites(os.Stdout, a, b) > 0 {
					os.Exit(1)
				}
				return
			}
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case *selfcheck:
		// Two sets of selfcheckRuns runs each, alternating, so that a slow
		// spell of the box falls on both sets alike.
		var sets [2][]*suiteOut
		for i := 0; i < 2*selfcheckRuns; i++ {
			sets[i%2] = append(sets[i%2], runSuite(all, *seed, *seconds, false))
		}
		a, b := mergeRuns(sets[0]), mergeRuns(sets[1])
		fmt.Println()
		compareSuites(os.Stdout, a, b)
		// Two sets of runs of one commit must agree: neither median may be
		// worse than the other by more than the bound. A row whose runs
		// spread wider than the bound is still printed as unresolved, but
		// it fails the check only if the medians disagree too.
		disagree := 0
		for _, rows := range [][]row{compareRows(a, b), compareRows(b, a)} {
			for _, r := range rows {
				if !r.def.noBound && r.worse > r.allowed {
					fmt.Printf("DISAGREE %s %s: %.6g vs %.6g\n", r.workload, r.def.name, r.a.Value, r.b.Value)
					disagree++
				}
			}
		}
		if disagree > 0 || !a.correct() || !b.correct() {
			os.Exit(1)
		}
		return
	}

	names := all
	if *name != "" {
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q; workloads: %s\n", *name, strings.Join(all, ", "))
			os.Exit(2)
		}
		names = []string{*name}
	}
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "-seconds must be between 1 and 60")
		os.Exit(2)
	}
	s := runSuite(names, *seed, *seconds, *trace != 0)
	if *outFile != "" {
		if err := writeJSON(*outFile, s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.RemoveAll("out/tmp")
	if *name != "" {
		fmt.Println(driverLine(s.Workloads[0], *trace != 0))
	}
	if !s.correct() {
		os.Exit(1)
	}
}

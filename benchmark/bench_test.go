package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/50 size with the span recorder on:
// each must finish, pass its own correctness checks, and report only
// declared metrics. The characteristic bands are stated for full size and
// are not applied here.
func TestSmoke(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rec := newRecorder()
			r, err := w.rep(runCfg{seed: 1, workers: 2, scale: 0.02}, rec)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
			}
			for _, d := range endToEnd {
				if d.everywhere && !(r.e2e[d.name] > 0) && d.name != "epoch_p90_ms" {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, r.e2e[d.name])
				}
			}
			for name := range r.layer {
				if !declared[name] {
					t.Errorf("undeclared layer metric %s", name)
				}
			}
			if len(r.spans) == 0 {
				t.Fatal("traced repetition recorded no spans")
			}
			for i, s := range r.spans {
				if s.End < s.Start || s.Parent >= len(r.spans) {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
			}
			path, err := writeSpans(dir, w.name, r.spans)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var back []span
			if err := json.Unmarshal(raw, &back); err != nil || len(back) != len(r.spans) {
				t.Fatalf("span file does not read back: %v (%d of %d spans)", err, len(back), len(r.spans))
			}
		})
	}
	os.RemoveAll(filepath.Join("out", "tmp"))
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 0.5, false}, {20, 0.5, true}, {99, 0.9, false}, {100, 0.9, true}, {105, 0.9, true}, {105, 0.99, false},
		{999, 0.99, false}, {1000, 0.99, true}, {3584, 0.99, true}, {9999, 0.999, false}, {10000, 0.999, true}, {16, 0.9, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quantile(append([]float64(nil), xs...), 0.9); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{100, 110, 90, 100}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", got)
	}
}

func TestScheduleIsPureFunctionOfSeedAndRate(t *testing.T) {
	a, b := schedule(7, 4000, time.Second), schedule(7, 4000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate gave different due times")
	}
	if reflect.DeepEqual(a, schedule(8, 4000, time.Second)) {
		t.Fatal("another seed gave the same due times")
	}
	if n := len(a); n < 3600 || n > 4400 {
		t.Fatalf("%d arrivals in 1 s at 4000/s", n)
	}
	for i := range a {
		if a[i] >= time.Second || i > 0 && a[i] < a[i-1] {
			t.Fatalf("due[%d] = %v out of order or past the window", i, a[i])
		}
	}
}

// A stalled server must show as lateness and as latency from the due
// time; the due times themselves, and so the offered gaps, do not move.
func TestOpenLoopStallGrowsLateness(t *testing.T) {
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	stall := 40 * time.Millisecond
	boom := errors.New("boom")
	out := openLoop(due, 1, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		if i == 5 {
			return boom
		}
		return nil
	})
	if out[0].late > 20*time.Millisecond {
		t.Fatalf("first request left %v late with nothing in its way", out[0].late)
	}
	for i := 1; i < len(out); i++ {
		if wait := stall - due[i]; out[i].late < wait-time.Millisecond {
			t.Errorf("request %d due at %v left %v late, behind a %v stall it should have waited %v", i, due[i], out[i].late, stall, wait)
		}
		if out[i].latency < out[i].late {
			t.Errorf("request %d: latency %v is not taken from the due time (left %v late)", i, out[i].latency, out[i].late)
		}
	}
	if out[5].err != boom {
		t.Errorf("request 5 error = %v, want boom", out[5].err)
	}
	res := openLoopMetrics(out, make([]request, len(out)), 1000)
	if res.failed != 1 || res.met {
		t.Errorf("a failed request must miss the limit: failed=%d met=%v", res.failed, res.met)
	}
}

func TestModelFSKeepsWhatAPowerLossKeeps(t *testing.T) {
	dir := t.TempDir()
	m := newModelFS(0)
	write := func(name, data string, sync bool) {
		t.Helper()
		f, err := m.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(f, data); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cut := func() map[string]string {
		t.Helper()
		dst := filepath.Join(t.TempDir(), "cut")
		if err := m.powerLoss(dir, dst); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		entries, err := os.ReadDir(dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dst, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[e.Name()] = string(raw)
		}
		return got
	}

	// Flushed bytes survive, bytes written after the last flush do not.
	write("wal", "0123456789", true)
	write("wal", "abcde", false)
	if got := cut()["wal"]; got != "0123456789" {
		t.Fatalf("wal after power loss = %q, want the flushed prefix", got)
	}
	if c := m.counters(); c.walSyncs != 1 || c.writeBytes != 15 || c.writeCalls != 2 {
		t.Fatalf("counters = %+v", c)
	}

	// Cutting a file back below its flushed length lowers the flushed length.
	if err := m.Truncate(filepath.Join(dir, "wal"), 4); err != nil {
		t.Fatal(err)
	}
	write("wal", "XY", false)
	if got := cut()["wal"]; got != "0123" {
		t.Fatalf("wal after truncate and power loss = %q, want 0123", got)
	}

	// A rename is undone, and the file it displaced is back, until the
	// directory is flushed.
	write("snapshot.json", "old", true)
	write("snapshot.json.tmp", "new", true)
	if err := m.Rename(filepath.Join(dir, "snapshot.json.tmp"), filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}
	got := cut()
	if got["snapshot.json"] != "old" || got["snapshot.json.tmp"] != "new" {
		t.Fatalf("unflushed rename not undone: %v", got)
	}
	if err := m.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	got = cut()
	if _, stale := got["snapshot.json.tmp"]; got["snapshot.json"] != "new" || stale || len(got) != 2 {
		t.Fatalf("flushed rename not kept: %v", got)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{name: "submit_p50_us", unit: "us", bound: 0.10}
	thr := metricDef{name: "orders_per_s", unit: "1/s", higher: true, bound: 0.10}
	m := func(samples ...float64) metricOut { return metricOut{Value: median(samples), Samples: samples} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metricOut
		want verdict
	}{
		{"same", lat, m(100, 101, 99), m(100, 102, 98), ok},
		{"worse within bound", lat, m(100, 101, 99), m(108, 109, 107), ok},
		{"worse beyond bound", lat, m(100, 101, 99), m(120, 121, 119), regressed},
		{"throughput down beyond bound", thr, m(1000, 1010, 990), m(850, 860, 840), regressed},
		{"throughput up", thr, m(1000, 1010, 990), m(1500, 1510, 1490), ok},
		{"spread wider than bound", lat, m(100, 140, 70), m(120, 160, 90), unresolved},
		{"spread wide but every run better", lat, m(100, 140, 70), m(50, 60, 40), ok},
		{"set-up floor", endToEnd[0], m(0.001), m(0.03), ok},
		{"set-up beyond floor and bound", endToEnd[0], m(0.5), m(0.7), regressed},
		{"zero stays zero", metricDef{name: "lost_acks"}, m(0), m(0), ok},
		{"zero becomes one", metricDef{name: "lost_acks"}, m(0), m(1), regressed},
		{"no bound", metricDef{name: "max_rate_ok_per_s", higher: true, noBound: true}, m(8000), m(4000), ok},
	} {
		if got := judge(c.def, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestMergeRunsTakesTheSpreadBetweenRuns(t *testing.T) {
	run := func(v float64) *suiteOut {
		return &suiteOut{Workloads: []workloadOut{{Name: "w", Correct: true,
			EndToEnd: map[string]metricOut{"orders_per_s": {Value: v, Unit: "1/s", Samples: []float64{v - 1, v + 1}}}}}}
	}
	if one := run(100); mergeRuns([]*suiteOut{one}) != one {
		t.Error("one run must be kept as it is, with its per-repetition samples")
	}
	m := mergeRuns([]*suiteOut{run(100), run(90), run(130)}).Workloads[0].EndToEnd["orders_per_s"]
	if m.Value != 100 || !reflect.DeepEqual(m.Samples, []float64{100, 90, 130}) {
		t.Errorf("merged = %+v, want median 100 over the three runs' values", m)
	}
}

func TestBands(t *testing.T) {
	w := &workload{name: "w", bands: []band{{"won_share", 0.2, 0.3}, {"core.replay_match", 1, 1}}}
	if p := checkBands(w, map[string]float64{"won_share": 0.25}); len(p) != 0 {
		t.Errorf("in band, replay not measured: %v", p)
	}
	if p := checkBands(w, map[string]float64{"won_share": 1, "core.replay_match": 0.9}); len(p) != 2 {
		t.Errorf("want two problems, got %v", p)
	}
}

// BENCHMARK.json is written by hand for the driver; the tables in main.go
// are what the program reports. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != baseWindow {
		t.Errorf("run_seconds = %v, the stated sizes fill %v", file.RunSeconds, baseWindow)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a reason of at most 200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	same := func(label string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d entries in BENCHMARK.json, %d in the program", label, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			g, d := got[i], want[i]
			ok := g.Name == d.name && g.Unit == d.unit && g.Better == better(d)
			if bounded {
				ok = ok && g.Bound != nil && *g.Bound == d.bound
			} else {
				ok = ok && g.Bound == nil
			}
			if !ok {
				t.Errorf("%s[%d] = %+v, the program has %s %s %s bound %v", label, i, g, d.name, d.unit, better(d), d.bound)
			}
		}
	}
	var everywhere []metricDef
	for _, d := range endToEnd {
		if d.everywhere {
			everywhere = append(everywhere, d)
		}
	}
	same("end_to_end", file.EndToEnd, everywhere, true)
	same("per_layer", file.PerLayer, perLayerContract(), false)
}

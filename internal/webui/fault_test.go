package webui

// Ops-surface regressions for the fault subsystem: /healthz flips
// 200→503→200 around degraded quiesce and stays 200 once a region
// partition has healed, /metrics exposes the degraded series, and the
// SSE feed delivers the fault-injected / degraded-entered kinds.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/fault"
	"clustermarket/internal/federation"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// degradableFixture is telemetryFixture with the exchange journaled on
// a fault FS, so tests can quiesce and heal it at will.
func degradableFixture(t *testing.T, fire *telemetry.Firehose) (*Server, *market.Exchange, *fault.Injector) {
	t.Helper()
	f := cluster.NewFleet()
	c := cluster.New("r1", nil)
	c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
	if err := f.AddCluster(c); err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	j, _, err := journal.Open(t.TempDir(), journal.Options{FS: fault.NewFS(inj, nil), FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e6, Journal: j, Telemetry: fire})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("web-team"); err != nil {
		t.Fatal(err)
	}
	return New(ex), ex, inj
}

// degrade quiesces the exchange via a persistent injected disk fault.
func degrade(t *testing.T, ex *market.Exchange, inj *fault.Injector) {
	t.Helper()
	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 100000}})
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r1"}, 500); err == nil {
		t.Fatal("submit under persistent fault succeeded")
	}
	if !ex.Degraded() {
		t.Fatal("exchange did not quiesce")
	}
}

type healthzBody struct {
	Healthy         bool                   `json:"healthy"`
	Degraded        *market.DegradedStatus `json:"degraded"`
	DegradedRegions []string               `json:"degraded_regions"`
}

func getHealthz(t *testing.T, ts *httptest.Server) (int, healthzBody) {
	t.Helper()
	code, body := get(t, ts, "/healthz")
	var hb healthzBody
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatalf("healthz body not JSON: %v (%q)", err, body)
	}
	return code, hb
}

func TestHealthzDegradedTransitions(t *testing.T) {
	s, ex, inj := degradableFixture(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, hb := getHealthz(t, ts)
	if code != http.StatusOK || !hb.Healthy || hb.Degraded != nil {
		t.Fatalf("healthy probe = %d %+v, want bare 200", code, hb)
	}

	degrade(t, ex, inj)
	code, hb = getHealthz(t, ts)
	if code != http.StatusServiceUnavailable || hb.Healthy {
		t.Fatalf("degraded probe = %d %+v, want 503", code, hb)
	}
	if hb.Degraded == nil || !hb.Degraded.Degraded || hb.Degraded.Cause == "" {
		t.Fatalf("degraded body = %+v, want cause", hb.Degraded)
	}

	inj.Arm(nil)
	if err := ex.TryResume(true); err != nil {
		t.Fatal(err)
	}
	code, hb = getHealthz(t, ts)
	if code != http.StatusOK || !hb.Healthy {
		t.Fatalf("healed probe = %d %+v, want 200", code, hb)
	}
	// The past episode stays visible for operators without failing the probe.
	if hb.Degraded == nil || hb.Degraded.Degraded || hb.Degraded.Exited != 1 {
		t.Fatalf("healed body = %+v, want exited episode record", hb.Degraded)
	}
}

// fedFaultFixture builds the hot+cold federation with an injector
// attached, the hot region journaled on the fault FS.
func fedFaultFixture(t *testing.T) (*federation.Federation, *fault.Injector, *httptest.Server) {
	t.Helper()
	inj := fault.New()
	mk := func(name string, util float64, journaled bool) *federation.Region {
		rng := rand.New(rand.NewSource(5))
		fleet := cluster.NewFleet()
		for i := 1; i <= 2; i++ {
			cn := fmt.Sprintf("%s-r%d", name, i)
			c := cluster.New(cn, nil)
			c.AddMachines(10, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := fleet.AddCluster(c); err != nil {
				t.Fatal(err)
			}
			if err := fleet.FillToUtilization(rng, cn, cluster.Usage{CPU: util, RAM: util, Disk: util}); err != nil {
				t.Fatal(err)
			}
		}
		cfg := market.Config{InitialBudget: 1e6}
		if journaled {
			j, _, err := journal.Open(t.TempDir(), journal.Options{FS: fault.NewFS(inj, nil), FsyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			cfg.Journal = j
		}
		r, err := federation.NewRegion(name, fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fed, err := federation.NewFederation(mk("hot", 0.85, true), mk("cold", 0.1, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.OpenAccount("search"); err != nil {
		t.Fatal(err)
	}
	fed.AttachFaults(inj)
	ts := httptest.NewServer(NewFederated(fed))
	t.Cleanup(ts.Close)
	return fed, inj, ts
}

// TestFedHealthzHealedPartition: a settlement partition that has
// stopped firing leaves the federated probe healthy. The router keeps no
// per-region health of its own, so nothing outlives the fault.
func TestFedHealthzHealedPartition(t *testing.T) {
	fed, inj, ts := fedFaultFixture(t)

	inj.Arm([]fault.Window{{Op: fault.OpRegionSettle, Scope: "cold", Kind: fault.Unreachable, Count: 3}})
	for n := 0; n < 3; n++ {
		if _, err := fed.SettleRegion("cold"); err == nil {
			t.Fatal("injected settle succeeded")
		}
	}
	inj.Arm(nil)
	if code, hb := getHealthz(t, ts); code != http.StatusOK || !hb.Healthy {
		t.Fatalf("probe after the partition healed = %d %+v, want 200", code, hb)
	}
}

func TestFedHealthzDegradedRegion(t *testing.T) {
	fed, inj, ts := fedFaultFixture(t)

	// Quiesce hot's regional exchange through its journaled disk.
	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000}})
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"hot-r1"}, 500); err == nil {
		t.Fatal("submit under persistent disk fault succeeded")
	}
	hot := fed.Region("hot").Exchange()
	if !hot.Degraded() {
		t.Fatal("hot region did not quiesce")
	}
	code, hb := getHealthz(t, ts)
	if code != http.StatusServiceUnavailable || hb.Healthy {
		t.Fatalf("degraded-region probe = %d %+v, want 503", code, hb)
	}
	hasHot := false
	for _, r := range hb.DegradedRegions {
		if r == "hot" {
			hasHot = true
		}
	}
	if !hasHot {
		t.Fatalf("degraded_regions = %v, want hot", hb.DegradedRegions)
	}

	inj.Arm(nil)
	if err := hot.TryResume(true); err != nil {
		t.Fatal(err)
	}
	if code, hb = getHealthz(t, ts); code != http.StatusOK || !hb.Healthy {
		t.Fatalf("healed probe = %d %+v, want 200", code, hb)
	}
}

func TestMetricsDegradedSeries(t *testing.T) {
	s, ex, inj := degradableFixture(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	degrade(t, ex, inj)
	code, text := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE market_degraded gauge",
		"market_degraded 1",
		"market_degraded_entered_total 1",
		"market_degraded_exited_total 0",
		"market_degraded_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	inj.Arm(nil)
	if err := ex.TryResume(true); err != nil {
		t.Fatal(err)
	}
	_, text = get(t, ts, "/metrics")
	for _, want := range []string{"market_degraded 0", "market_degraded_exited_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("healed exposition missing %q", want)
		}
	}
}

// TestEventsSSEFaultKinds: the new operational event kinds ride the
// same SSE feed as the market stream.
func TestEventsSSEFaultKinds(t *testing.T) {
	fire := telemetry.NewFirehose()
	s, ex, inj := degradableFixture(t, fire)
	inj.AttachTelemetry(fire)
	ts := httptest.NewServer(s)
	defer ts.Close()

	go func() {
		for fire.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		degrade(t, ex, inj)
		inj.Arm(nil)
		ex.TryResume(true)
	}()

	// The persistent burst injects one fault per append attempt (initial
	// + the journal's healRetries = 5) before the quiesce, then one
	// entered and one exited event: 7 frames total on the filtered stream.
	kinds := strings.Join([]string{fault.EvFaultInjected, market.EvDegradedEntered, market.EvDegradedExited}, ",")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/events?kinds="+kinds+"&max=7", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 7)
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7", len(events))
	}
	if events[0].env.Source != fault.EventSource || events[0].env.Kind != fault.EvFaultInjected {
		t.Errorf("first event = %s/%s, want fault injection", events[0].env.Source, events[0].env.Kind)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.env.Kind] = true
	}
	for _, want := range []string{fault.EvFaultInjected, market.EvDegradedEntered, market.EvDegradedExited} {
		if !seen[want] {
			t.Errorf("SSE feed missing kind %q", want)
		}
	}
}

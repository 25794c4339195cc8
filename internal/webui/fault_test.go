package webui

// Ops-surface regressions for the fault subsystem: /healthz flips
// 200→503→200 around a journal that fails past its heal loop and then
// heals, names each failing journal (a region's, the router's), stays
// 200 once a region partition has healed, /metrics exposes the
// journal's failing series, and the SSE feed delivers the
// fault-injected kind.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
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
// a fault FS, so tests can fail and heal its disk at will.
func degradableFixture(t *testing.T, fire *telemetry.Firehose, snapshotEvery int) (*Server, *market.Exchange, *fault.Injector) {
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
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e6, Journal: j, Telemetry: fire, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("web-team"); err != nil {
		t.Fatal(err)
	}
	return New(ex), ex, inj
}

// degrade fails a submit past the journal's heal loop with a persistent
// injected disk fault.
func degrade(t *testing.T, ex *market.Exchange, inj *fault.Injector) {
	t.Helper()
	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 100000}})
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r1"}, 500); err == nil {
		t.Fatal("submit under persistent fault succeeded")
	}
}

type healthzBody struct {
	Healthy         bool     `json:"healthy"`
	FailingJournals []string `json:"failing_journals"`
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

// TestDiskHealsWithoutResume: once a disk that failed past the heal
// loop heals, the next submit is accepted and the probe answers 200,
// with nothing called in between.
func TestDiskHealsWithoutResume(t *testing.T) {
	s, ex, inj := degradableFixture(t, nil, 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	degrade(t, ex, inj)
	if code, hb := getHealthz(t, ts); code != http.StatusServiceUnavailable || hb.Healthy {
		t.Fatalf("probe on a failed disk = %d %+v, want 503", code, hb)
	}
	inj.Arm(nil)
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r1"}, 500); err != nil {
		t.Fatalf("submit on the healed disk: %v", err)
	}
	if code, hb := getHealthz(t, ts); code != http.StatusOK || !hb.Healthy || hb.FailingJournals != nil {
		t.Fatalf("probe on the healed disk = %d %+v, want bare 200", code, hb)
	}
}

// TestHealthzFailingSnapshotClearsOnNextWrite: a cadence snapshot that fails past the
// heal loop leaves its auction standing and the probe 503, naming the
// market's journal; any later write on the healed disk clears it.
func TestHealthzFailingSnapshotClearsOnNextWrite(t *testing.T) {
	s, ex, inj := degradableFixture(t, nil, 1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, hb := getHealthz(t, ts)
	if code != http.StatusOK || !hb.Healthy || hb.FailingJournals != nil {
		t.Fatalf("healthy probe = %d %+v, want bare 200", code, hb)
	}

	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r1"}, 500); err != nil {
		t.Fatal(err)
	}
	inj.Arm([]fault.Window{{Op: fault.OpDiskRename, Kind: fault.EIO, Count: 100000}})
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatalf("auction with a failing cadence snapshot = %v, want it to stand", err)
	}
	code, hb = getHealthz(t, ts)
	if code != http.StatusServiceUnavailable || hb.Healthy || !slices.Equal(hb.FailingJournals, []string{"market"}) {
		t.Fatalf("probe after the failed snapshot = %d %+v, want 503 naming market", code, hb)
	}

	inj.Arm(nil)
	if err := ex.OpenAccount("late-team"); err != nil {
		t.Fatal(err)
	}
	if code, hb = getHealthz(t, ts); code != http.StatusOK || !hb.Healthy || hb.FailingJournals != nil {
		t.Fatalf("healed probe = %d %+v, want bare 200", code, hb)
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

// TestFedHealthzFailingRegionJournal: a region whose journal fails past its
// heal loop turns the federated probe 503, naming the region, until a
// write to it succeeds on the healed disk.
func TestFedHealthzFailingRegionJournal(t *testing.T) {
	fed, inj, ts := fedFaultFixture(t)

	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000}})
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"hot-r1"}, 500); err == nil {
		t.Fatal("submit under persistent disk fault succeeded")
	}
	code, hb := getHealthz(t, ts)
	if code != http.StatusServiceUnavailable || hb.Healthy || !slices.Equal(hb.FailingJournals, []string{"hot"}) {
		t.Fatalf("failing-region probe = %d %+v, want 503 naming hot", code, hb)
	}

	inj.Arm(nil)
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"hot-r1"}, 500); err != nil {
		t.Fatalf("submit on the healed disk: %v", err)
	}
	if code, hb = getHealthz(t, ts); code != http.StatusOK || !hb.Healthy {
		t.Fatalf("healed probe = %d %+v, want 200", code, hb)
	}
}

// TestFedHealthzFailingRouterJournal: a router whose WAL fails past its
// heal loop is failing until its next write lands: the probe answers 503
// naming it "fed", and the scrape shows it. The submit whose record did
// not persist is withdrawn from the router and the region; once the disk
// heals, the next routed submit succeeds and the probe is healthy again.
func TestFedHealthzFailingRouterJournal(t *testing.T) {
	fed, inj, ts := fedFaultFixture(t)
	j, _, err := journal.Open(t.TempDir(), journal.Options{FS: fault.NewFS(inj, nil), FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	fed.AttachJournal(j, 0)

	// The cold region is not journaled, so the router's WAL is the one
	// write the fault meets.
	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000}})
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"cold-r1"}, 500); err == nil {
		t.Fatal("routed submit with a failing router WAL succeeded")
	}
	code, hb := getHealthz(t, ts)
	if code != http.StatusServiceUnavailable || hb.Healthy || !slices.Equal(hb.FailingJournals, []string{"fed"}) {
		t.Fatalf("probe with a failing router WAL = %d %+v, want 503 naming fed", code, hb)
	}
	// Every write tried while the disk fails counts: the record of the
	// quote the submit fetched on demand, then the snapshots the submit
	// and its withdrawal wrote in place of their records.
	_, text := get(t, ts, "/metrics")
	for _, want := range []string{"fed_journal_failing 1", "fed_journal_failures_total 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	inj.Arm(nil)
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"cold-r1"}, 500); err != nil {
		t.Fatalf("routed submit after the disk healed: %v", err)
	}
	if code, hb := getHealthz(t, ts); code != http.StatusOK || !hb.Healthy || len(hb.FailingJournals) != 0 {
		t.Fatalf("probe after the disk healed = %d %+v, want 200", code, hb)
	}
	_, text = get(t, ts, "/metrics")
	for _, want := range []string{"fed_journal_failing 0", "fed_journal_failures_total 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("healed exposition missing %q", want)
		}
	}
	cold := fed.Region("cold").Exchange()
	for i, want := range []market.OrderStatus{market.Cancelled, market.Open} {
		fo, err := fed.Order(i)
		if err != nil {
			t.Fatal(err)
		}
		o, err := cold.Order(fo.Legs[0].OrderID)
		if err != nil {
			t.Fatal(err)
		}
		if fo.Status != want || o.Status != want {
			t.Errorf("submit %d: router %s, region %s; want %s in both", i, fo.Status, o.Status, want)
		}
	}
}

func TestMetricsDegradedSeries(t *testing.T) {
	s, ex, inj := degradableFixture(t, nil, 0)
	ts := httptest.NewServer(s)
	defer ts.Close()

	degrade(t, ex, inj)
	code, text := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE market_journal_failing gauge",
		"market_journal_failing 1",
		"# TYPE market_journal_failures_total counter",
		"market_journal_failures_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	inj.Arm(nil)
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r1"}, 500); err != nil {
		t.Fatal(err)
	}
	_, text = get(t, ts, "/metrics")
	for _, want := range []string{"market_journal_failing 0", "market_journal_failures_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("healed exposition missing %q", want)
		}
	}
}

// TestEventsSSEFaultKinds: the injector's operational event kind rides
// the same SSE feed as the market stream.
func TestEventsSSEFaultKinds(t *testing.T) {
	fire := telemetry.NewFirehose()
	s, ex, inj := degradableFixture(t, fire, 0)
	inj.AttachTelemetry(fire)
	ts := httptest.NewServer(s)
	defer ts.Close()

	go func() {
		for fire.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		degrade(t, ex, inj)
		inj.Arm(nil)
	}()

	// The persistent burst injects one fault per append attempt: the
	// first and the journal's healRetries = 4, 5 frames on the filtered
	// stream.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/events?kinds="+fault.EvFaultInjected+"&max=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 5)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for _, ev := range events {
		if ev.env.Source != fault.EventSource || ev.env.Kind != fault.EvFaultInjected {
			t.Errorf("event = %s/%s, want fault injection", ev.env.Source, ev.env.Kind)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

func TestBuildDemo(t *testing.T) {
	ex, _, err := buildDemo(4, 6, 42, 5000, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ex.Teams()); got != 5 {
		t.Fatalf("teams = %d", got)
	}
	if got := ex.Registry().Len(); got != 12 {
		t.Fatalf("pools = %d", got)
	}
	// The demo fleet must contain both hot and cold clusters so the
	// summary page shows contrast.
	rows, err := ex.Summary()
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold bool
	for _, r := range rows {
		if r.Utilization.CPU >= 0.7 {
			hot = true
		}
		if r.Utilization.CPU <= 0.4 {
			cold = true
		}
	}
	if !hot || !cold {
		t.Errorf("demo lacks load contrast: hot=%v cold=%v", hot, cold)
	}

	// The demo exchange serves the web UI end to end.
	ts := httptest.NewServer(webui.New(ex))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "Market summary") {
		t.Error("summary page missing title")
	}
}

func TestBuildDemoBadInputs(t *testing.T) {
	// Zero clusters yields an exchange error (no pools).
	if _, _, err := buildDemo(0, 4, 1, 100, "", 0, nil); err == nil {
		t.Error("zero clusters accepted")
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(8, 20, 0, 10000, 30*time.Second, 0); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	if err := validateFlags(4, 10, 3, 5000, 0, 2*time.Second); err != nil {
		t.Errorf("federated flags rejected: %v", err)
	}
	bad := []struct {
		name                        string
		clusters, machines, regions int
		budget                      float64
		epoch                       time.Duration
		lockWait                    time.Duration
	}{
		{"zero clusters", 0, 20, 0, 10000, time.Second, 0},
		{"negative clusters", -3, 20, 0, 10000, time.Second, 0},
		{"zero machines", 8, 0, 0, 10000, time.Second, 0},
		{"zero budget", 8, 20, 0, 0, time.Second, 0},
		{"negative budget", 8, 20, 0, -5, time.Second, 0},
		{"NaN budget", 8, 20, 0, math.NaN(), time.Second, 0},
		{"+Inf budget", 8, 20, 0, math.Inf(1), time.Second, 0},
		{"negative epoch", 8, 20, 0, 10000, -time.Second, 0},
		{"negative regions", 8, 20, -1, 10000, time.Second, 0},
		{"one region", 8, 20, 1, 10000, time.Second, 0},
		{"negative lock-wait", 8, 20, 0, 10000, time.Second, -time.Second},
	}
	for _, tc := range bad {
		if err := validateFlags(tc.clusters, tc.machines, tc.regions, tc.budget, tc.epoch, tc.lockWait); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBuildFederatedDemo(t *testing.T) {
	fed, _, err := buildFederatedDemo(3, 2, 6, 42, 5000, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions := fed.Regions()
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	if regions[0].Name() != "us" || regions[1].Name() != "eu" {
		t.Errorf("region names = %s, %s", regions[0].Name(), regions[1].Name())
	}
	if got := fed.RegionOf("eu-r1"); got != "eu" {
		t.Errorf("eu-r1 owned by %q", got)
	}
	if got := len(fed.Region("us").Exchange().Teams()); got != 5 {
		t.Errorf("teams = %d", got)
	}

	// The federated demo serves the global view and drill-downs end to
	// end, and a cross-region bid routes away from the hot us region.
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"us-r1", "eu-r1"}, 100); err != nil {
		t.Fatal(err)
	}
	fed.Tick()
	ts := httptest.NewServer(webui.NewFederated(fed))
	defer ts.Close()
	for _, path := range []string{"/", "/region/eu/", "/region/eu/bid"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	st := fed.Stats()
	if st.CrossRegion != 1 || st.Won != 1 {
		t.Errorf("router stats = %+v", st)
	}
}

// TestServeGracefulShutdown drives the real serve() path: the server
// accepts traffic, then drains cleanly once the context is cancelled —
// the SIGINT/SIGTERM flow without the signal.
func TestServeGracefulShutdown(t *testing.T) {
	ex, _, err := buildDemo(2, 4, 7, 1000, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, ln, webui.New(ex)) }()

	// Wait for the listener, then confirm it serves.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not drain after cancel")
	}
}

// TestStalledHeaderClosed sends a request line and one header, then
// nothing: the server must close the connection within
// readHeaderTimeout, not hold it for as long as the client likes.
func TestStalledHeaderClosed(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- serveListener(ctx, ln, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	}()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: marketd\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 2 * time.Second
	conn.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("a stalled request was still open after %s", time.Since(start).Round(time.Millisecond))
	}
	if err != nil || n != 0 {
		t.Fatalf("stalled request: read %d bytes, %v; want the connection closed", n, err)
	}
}

// TestLiveCheckNamesRegion corrupts one region of a two-region demo and
// reads what /healthz reports: each violation names its region.
func TestLiveCheckNamesRegion(t *testing.T) {
	fed, closer, err := buildFederatedDemo(2, 2, 4, 7, 1000, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	var markets []checkedMarket
	for _, r := range fed.Regions() {
		markets = append(markets, checkedMarket{r.Name(), r.Exchange()})
	}
	markets[1].ex = corruptExchange(t)
	health := telemetry.NewHealth(time.Now())
	recordLiveCheck(health, markets...)
	got := health.Snapshot(time.Now()).Violations
	want := []string{"region eu: ledger-balanced", "region eu: ledger-balanced", "region eu: non-negative-balance"}
	if len(got) != len(want) {
		t.Fatalf("violations = %q, want %d lines opening %q", got, len(want), want)
	}
	for i, line := range got {
		if !strings.HasPrefix(line, want[i]+": ") {
			t.Errorf("violation %d = %q, want it to open with %q", i, line, want[i])
		}
	}
}

// corruptExchange recovers an exchange from a fabricated snapshot whose
// ledger does not balance by auction and whose account "a" is
// overdrawn: a snapshot's money state is taken verbatim.
func corruptExchange(t *testing.T) *market.Exchange {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"balances": map[string]float64{"a": -0.5, "b": 12.5},
		"ledger": []market.LedgerEntry{
			{Seq: 0, Auction: 1, Team: "a", Amount: -10},
			{Seq: 1, Auction: 1, Team: market.OperatorAccount, Amount: 7},
			{Seq: 2, Auction: 2, Team: "b", Amount: -4},
			{Seq: 3, Auction: 2, Team: market.OperatorAccount, Amount: 7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet := cluster.NewFleet()
	c := cluster.New("c1", nil)
	c.AddMachines(2, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
	if err := fleet.AddCluster(c); err != nil {
		t.Fatal(err)
	}
	ex, err := market.Recover(fleet, market.Config{InitialBudget: 1e5}, &journal.Recovery{SnapshotSeq: 1, Snapshot: raw})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestJournaledDemoRecovers(t *testing.T) {
	dir := t.TempDir()
	ex, closer, err := buildDemo(3, 6, 11, 8000, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("search", "batch-compute", 2, []string{"r1", "r2"}, 4000); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"r2"}, 2000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	wantHistory := len(ex.History())
	wantBalance, err := ex.Balance("search")
	if err != nil {
		t.Fatal(err)
	}

	// While the first process holds the directory, a second must refuse.
	if _, _, err := buildDemo(3, 6, 11, 8000, dir, 0, nil); err == nil {
		t.Fatal("second marketd opened a locked journal dir")
	}

	if err := closer(); err != nil {
		t.Fatal(err)
	}

	ex2, closer2, err := buildDemo(3, 6, 11, 8000, dir, 0, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer closer2()
	if got := len(ex2.History()); got != wantHistory {
		t.Errorf("recovered %d auctions, want %d", got, wantHistory)
	}
	if got := len(ex2.Teams()); got != len(demoTeams) {
		t.Errorf("recovered %d teams, want %d", got, len(demoTeams))
	}
	gotBalance, err := ex2.Balance("search")
	if err != nil {
		t.Fatal(err)
	}
	if gotBalance != wantBalance {
		t.Errorf("recovered balance %v, want %v", gotBalance, wantBalance)
	}
}

// TestJournaledFederatedDemoRecovers restarts the journaled federated
// demo: every region and the router recover to the same cut.
func TestJournaledFederatedDemoRecovers(t *testing.T) {
	dir := t.TempDir()
	fed, closer, err := buildFederatedDemo(2, 2, 6, 11, 8000, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"us-r1", "eu-r1"}, 2000); err != nil {
		t.Fatal(err)
	}
	fed.Tick()
	wantStats := fed.Stats()
	wantOrders := len(fed.Orders())
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	fed2, closer2, err := buildFederatedDemo(2, 2, 6, 11, 8000, dir, 0, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer closer2()
	if got := fed2.Stats(); got != wantStats {
		t.Errorf("recovered stats %+v, want %+v", got, wantStats)
	}
	if got := len(fed2.Orders()); got != wantOrders {
		t.Errorf("recovered %d orders, want %d", got, wantOrders)
	}
}

// TestFederatedRefusesSingleJournal pins one direction of the
// journal-mode check: a directory a single exchange journaled to is
// refused by a federated restart, which names the mode it was written
// with and creates nothing, and a matching restart still recovers.
func TestFederatedRefusesSingleJournal(t *testing.T) {
	dir := t.TempDir()
	ex, closer, err := buildDemo(2, 4, 7, 1000, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("search", "batch-compute", 1, []string{"r1"}, 500); err != nil {
		t.Fatal(err)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	_, _, err = buildFederatedDemo(2, 2, 4, 7, 1000, dir, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "-regions 0") {
		t.Fatalf("federated open of a single-exchange journal = %v, want a refusal naming -regions 0", err)
	}
	for _, sub := range []string{"us", federation.RouterDir} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err == nil {
			t.Errorf("refused start created %s/", sub)
		}
	}

	ex2, closer2, err := buildDemo(2, 4, 7, 1000, dir, 0, nil)
	if err != nil {
		t.Fatalf("matching restart: %v", err)
	}
	defer closer2()
	if got := ex2.OpenOrderCount(); got != 1 {
		t.Errorf("recovered %d open orders, want 1", got)
	}
}

// TestSingleRefusesFederatedJournal pins the other direction: a
// directory a federation journaled to is refused by a single-exchange
// restart, and a matching federated restart still recovers.
func TestSingleRefusesFederatedJournal(t *testing.T) {
	dir := t.TempDir()
	fed, closer, err := buildFederatedDemo(2, 2, 4, 7, 1000, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"us-r1", "eu-r1"}, 500); err != nil {
		t.Fatal(err)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	_, _, err = buildDemo(2, 4, 7, 1000, dir, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "federated") {
		t.Fatalf("single-exchange open of a federated journal = %v, want a refusal naming the federated mode", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal")); err == nil {
		t.Error("refused start created a root wal")
	}

	fed2, closer2, err := buildFederatedDemo(2, 2, 4, 7, 1000, dir, 0, nil)
	if err != nil {
		t.Fatalf("matching restart: %v", err)
	}
	defer closer2()
	if got := len(fed2.Orders()); got != 1 {
		t.Errorf("recovered %d routed orders, want 1", got)
	}
}

// TestDemoOpsEndpoints proves the wired-up observability surface: a
// demo world built with a firehose serves live Prometheus text at
// /metrics, a health probe at /healthz, and the event feed at
// /api/events — the same wiring main() performs.
func TestDemoOpsEndpoints(t *testing.T) {
	fire := telemetry.NewFirehose()
	ex, _, err := buildDemo(2, 4, 7, 5000, "", 0, fire)
	if err != nil {
		t.Fatal(err)
	}
	health := telemetry.NewHealth(time.Now())
	recordLiveCheck(health, checkedMarket{"", ex})
	s := webui.New(ex)
	s.SetHealth(health)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, err := ex.SubmitProduct("search", "batch-compute", 1, []string{"r1", "r2"}, 2000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	text := string(body[:n])
	for _, want := range []string{
		"market_orders_submitted_total 1",
		"market_auctions_total 1",
		"telemetry_events_published_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), `"healthy":true`) {
		t.Errorf("/healthz not healthy: %s", body[:n])
	}
}

// TestLockWaitRetries pins the -lock-wait restart race: opening a
// journal directory held by a live process fails fast with no wait
// budget, but a bounded retry loop picks the directory up as soon as
// the holder releases it.
func TestLockWaitRetries(t *testing.T) {
	dir := t.TempDir()
	_, closer, err := buildDemo(2, 4, 7, 1000, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Without a wait budget the held lock is a hard startup failure.
	if _, _, err := buildDemo(2, 4, 7, 1000, dir, 0, nil); !errors.Is(err, journal.ErrLocked) {
		t.Fatalf("locked open without wait = %v, want ErrLocked", err)
	}

	// Release the lock mid-wait; the retry loop must pick it up and
	// recover the previous run's books.
	go func() {
		time.Sleep(150 * time.Millisecond)
		closer()
	}()
	ex2, closer2, err := buildDemo(2, 4, 7, 1000, dir, 5*time.Second, nil)
	if err != nil {
		t.Fatalf("open with lock-wait: %v", err)
	}
	defer closer2()
	if got := len(ex2.Teams()); got != len(demoTeams) {
		t.Errorf("recovered %d teams, want %d", got, len(demoTeams))
	}
}

// TestPprofLoopbackOnly pins -pprof: an address that is not loopback —
// an empty host listens on every interface — is refused, and on loopback
// the profile index answers.
func TestPprofLoopbackOnly(t *testing.T) {
	for _, addr := range []string{":6060", "0.0.0.0:6060", "[::]:6060", "192.0.2.1:6060", "example.com:6060", "127.0.0.1"} {
		if err := checkLoopback(addr); err == nil {
			t.Errorf("-pprof %s accepted", addr)
		}
	}
	for _, addr := range []string{"127.0.0.1:6060", "[::1]:6060", "localhost:6060"} {
		if err := checkLoopback(addr); err != nil {
			t.Errorf("-pprof %s refused: %v", addr, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, ln, pprofHandler()) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("pprof server: %v", err)
		}
	}()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/: %s\n%s", resp.Status, body)
	}
}

// TestFederatedRestartRule pins what a journaled federated demo restarts
// from. An idle one, whose router never routed an order, recovers its
// teams without opening their accounts again; a directory whose journals
// do not match -regions is refused, naming the journal missing or extra.
func TestFederatedRestartRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		regions int    // the restart's -regions; the first run has 3
		remove  string // a journal removed before the restart
		want    string // in the refusal; "" means the restart recovers
	}{
		{"idle", 3, "", ""},
		{"fewer regions", 2, "", "extra asia"},
		{"more regions", 4, "", "missing sam"},
		{"router removed", 3, federation.RouterDir, "missing fed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, closer, err := buildFederatedDemo(3, 2, 4, 7, 1000, dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := closer(); err != nil {
				t.Fatal(err)
			}
			if tc.remove != "" {
				if err := os.RemoveAll(filepath.Join(dir, tc.remove)); err != nil {
					t.Fatal(err)
				}
			}
			fed, closer, err := buildFederatedDemo(tc.regions, 2, 4, 7, 1000, dir, 0, nil)
			if tc.want != "" {
				if err == nil {
					closer()
				}
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("restart = %v, want a refusal naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer closer()
			for _, r := range fed.Regions() {
				ex := r.Exchange()
				if got := len(ex.Teams()); got != len(demoTeams) {
					t.Errorf("%s recovered %d teams, want %d", r.Name(), got, len(demoTeams))
				}
				for _, team := range demoTeams {
					if b, err := ex.Balance(team); err != nil || b != 1000 {
						t.Errorf("%s: %s balance %v (%v), want one opening of 1000", r.Name(), team, b, err)
					}
				}
			}
		})
	}
}

// TestRecoveryNotesLogged corrupts a journal's snapshot.json in each
// mode. The WAL is whole, so recovery ignores the snapshot, and marketd
// logs the journal's note prefixed by its directory.
func TestRecoveryNotesLogged(t *testing.T) {
	for _, regions := range []int{0, 2} {
		t.Run(fmt.Sprintf("regions=%d", regions), func(t *testing.T) {
			dir := t.TempDir()
			build := func() (func() error, error) {
				if regions == 0 {
					_, closer, err := buildDemo(2, 4, 7, 1000, dir, 0, nil)
					return closer, err
				}
				_, closer, err := buildFederatedDemo(regions, 2, 4, 7, 1000, dir, 0, nil)
				return closer, err
			}
			closer, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := closer(); err != nil {
				t.Fatal(err)
			}
			jdir := dir
			if regions > 0 {
				jdir = filepath.Join(dir, "eu")
			}
			if err := os.WriteFile(filepath.Join(jdir, "snapshot.json"), []byte("{torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			defer log.SetOutput(log.Writer())
			log.SetOutput(&buf)
			closer, err = build()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer closer()
			if want := "marketd: journal " + jdir + ": snapshot "; !strings.Contains(buf.String(), want) {
				t.Errorf("log lacks %q:\n%s", want, buf.String())
			}
		})
	}
}

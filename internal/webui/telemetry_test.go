package webui

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// telemetryFixture mirrors newTestServer but attaches a firehose, so the
// ops endpoints have a live event stream to serve.
func telemetryFixture(t *testing.T) (*Server, *market.Exchange, *telemetry.Firehose) {
	t.Helper()
	f := cluster.NewFleet()
	for _, name := range []string{"r1", "r2"} {
		c := cluster.New(name, nil)
		c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
		if err := f.AddCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	if err := f.FillToUtilization(rng, "r1", cluster.Usage{CPU: 0.8, RAM: 0.8, Disk: 0.8}); err != nil {
		t.Fatal(err)
	}
	fire := telemetry.NewFirehose()
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e6, Telemetry: fire})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("web-team"); err != nil {
		t.Fatal(err)
	}
	return New(ex), ex, fire
}

// TestMethodNotAllowedRegressions pins every mutating or method-bound
// endpoint to 405 on the wrong verb, so a routing refactor cannot
// silently downgrade a write path into an accidental GET handler.
func TestMethodNotAllowedRegressions(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Mutating endpoints must reject reads.
	for _, path := range []string{"/auction/run", "/bid/submit", "/bid/preview"} {
		if code, _ := get(t, ts, path); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, code)
		}
	}
	// Read-only ops endpoints must reject writes.
	for _, path := range []string{"/metrics", "/healthz", "/api/events"} {
		code, _ := postForm(t, ts, path, url.Values{})
		if code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, code)
		}
	}

	_, fts := fedFixture(t)
	for _, path := range []string{"/bid/submit", "/region/hot/auction/run", "/region/hot/bid/submit"} {
		if code, _ := get(t, fts, path); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s (federated) = %d, want 405", path, code)
		}
	}
	for _, path := range []string{"/metrics", "/healthz", "/api/events"} {
		code, _ := postForm(t, fts, path, url.Values{})
		if code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s (federated) = %d, want 405", path, code)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	s, ex, _ := telemetryFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, err := ex.SubmitProduct("web-team", "batch-compute", 2, []string{"r1", "r2"}, 500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type = %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE market_orders_submitted_total counter",
		"market_orders_submitted_total 1",
		`market_orders_settled_total{outcome="won"}`,
		"market_auctions_total 1",
		"# TYPE market_clock_lanes_total counter",
		"market_clock_lanes_held_total 0",
		"market_clock_bundles_repriced_total",
		"market_clock_bundles_priced_total",
		"market_clock_bundles_dropped_total",
		"market_clock_z_rebuilds_total",
		`market_book_orders{state="live"} 0`,
		`market_book_orders{state="archived"} 1`,
		"# TYPE market_book_archive_bytes gauge",
		"market_ledger_entries 2",
		"# TYPE market_open_orders gauge",
		`market_open_orders_stripe{stripe="0"}`,
		"market_pool_price{",
		"telemetry_events_published_total",
		"telemetry_subscribers 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The clock counters come from the run itself: one auction clocked at
	// least one lane for at least one round.
	if mt := ex.Metrics(); mt.Clock.Lanes < 1 || mt.Clock.LaneRounds < mt.Clock.Lanes {
		t.Errorf("clock counters after one auction = %+v", mt.Clock)
	}
	// One header per family even with per-stripe members.
	if n := strings.Count(text, "# TYPE market_open_orders_stripe gauge"); n != 1 {
		t.Errorf("market_open_orders_stripe headers = %d, want 1", n)
	}
}

func TestFedMetricsExposition(t *testing.T) {
	fed, ts := fedFixture(t)
	if _, err := fed.SubmitProduct("search", "batch-compute", 2, []string{"hot-r1", "cold-r1"}, 500); err != nil {
		t.Fatal(err)
	}
	fed.Tick()

	code, text := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		`market_orders_submitted_total{region="hot"}`,
		`market_orders_submitted_total{region="cold"}`,
		"fed_orders_submitted_total 1",
		"fed_orders_cross_region_total 1",
		`fed_orders_settled_total{outcome="won"}`,
		"fed_gossip_ticks_total",
		"fed_router_routes 1",
		"fed_router_legs 2",
		"# TYPE fed_router_bytes gauge",
		"# TYPE fed_router_last_advance_visited gauge",
		`fed_router_last_advance_visited{region="cold"} 1`,
		`fed_router_last_advance_failovers{region="cold"} 0`,
		"# TYPE fed_router_last_advance_refused gauge",
		`fed_router_last_advance_refused{region="hot"} 0`,
		`fed_router_open_ids{region="hot"}`,
		`fed_router_open_ids{region="cold"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated exposition missing %q", want)
		}
	}
	// Two regions share each market family under one header.
	if n := strings.Count(text, "# TYPE market_orders_submitted_total counter"); n != 1 {
		t.Errorf("market_orders_submitted_total headers = %d, want 1", n)
	}
}

// TestFedOpsServedAtRootOnly: a federated process has one ops surface,
// at the root. A region's drill-down serves market pages only, because
// the firehose and the health record are the process's: a regional
// probe answered healthy while the root answered 503, a regional feed
// streamed the other region's and the router's events, and a regional
// scrape counted the whole process's telemetry under no region label.
// The root probe and feed answer for all of it.
func TestFedOpsServedAtRootOnly(t *testing.T) {
	fire := telemetry.NewFirehose()
	fed := newFedWorld(t, fire)
	s := NewFederated(fed)
	h := telemetry.NewHealth(time.Now())
	h.RecordCheck(time.Now(), []string{"ledger unbalanced: drift 0.02"})
	s.SetHealth(h)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// status reads only the status line, so a regional feed that streams
	// fails the check instead of blocking it.
	status := func(path string) int {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, region := range []string{"hot", "cold"} {
		for _, path := range []string{"/metrics", "/healthz", "/api/events"} {
			if code := status("/region/" + region + path); code != http.StatusNotFound {
				t.Errorf("GET /region/%s%s = %d, want 404", region, path, code)
			}
		}
	}
	if code := status("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("GET /healthz = %d, want 503 on a failed invariant check", code)
	}

	// One account opened on each region alone, and one order routed to
	// cold: the root feed carries both regions' events and the router's.
	go func() {
		for fire.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		fed.Region("hot").Exchange().OpenAccount("hot-team")
		fed.Region("cold").Exchange().OpenAccount("cold-team")
		fed.SubmitProduct("search", "batch-compute", 1, []string{"cold-r1"}, 50)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	kinds := market.EvAccountOpened + "," + market.EvOrderSubmitted + "," + federation.EvFedOrderSubmitted
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/events?max=4&kinds="+kinds, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := map[string]bool{}
	for _, ev := range readSSE(t, resp.Body, 4) {
		key := ev.env.Source + "/" + ev.env.Kind
		if p, ok := ev.env.Payload.(map[string]any); ok && ev.env.Kind == market.EvAccountOpened {
			key += "/" + fmt.Sprint(p["team"])
		}
		seen[key] = true
	}
	for _, want := range []string{
		market.EventSource + "/" + market.EvAccountOpened + "/hot-team",
		market.EventSource + "/" + market.EvAccountOpened + "/cold-team",
		market.EventSource + "/" + market.EvOrderSubmitted,
		federation.EventSource + "/" + federation.EvFedOrderSubmitted,
	} {
		if !seen[want] {
			t.Errorf("root feed missing %s; saw %v", want, seen)
		}
	}
}

func TestHealthzProbe(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// No health record attached: bare always-healthy snapshot.
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("bare healthz = %d, want 200", code)
	}
	var snap telemetry.HealthSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	if !snap.Healthy || snap.LastCheckAgoMS != -1 {
		t.Fatalf("bare snapshot = %+v", snap)
	}

	h := telemetry.NewHealth(time.Now().Add(-time.Minute))
	h.SetJournal("/tmp/wal")
	h.RecordCheck(time.Now(), nil)
	s.SetHealth(h)
	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy probe = %d, want 200", code)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Healthy || !snap.JournalLocked || snap.JournalDir != "/tmp/wal" ||
		snap.ChecksTotal != 1 || snap.UptimeSeconds < 59 {
		t.Fatalf("healthy snapshot = %+v", snap)
	}

	h.RecordCheck(time.Now(), []string{"ledger unbalanced: drift 0.02"})
	code, body = get(t, ts, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failing probe = %d, want 503", code)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Healthy || snap.CheckFailures != 1 || len(snap.Violations) != 1 {
		t.Fatalf("failing snapshot = %+v", snap)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	env   eventEnvelope
}

// readSSE parses complete SSE frames off the stream until max frames or
// EOF/error.
func readSSE(t *testing.T, r io.Reader, max int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.env); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
			if len(out) >= max {
				return out
			}
		}
	}
	return out
}

func TestEventsSSEStream(t *testing.T) {
	s, ex, fire := telemetryFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The publisher waits for the handler's subscription before trading,
	// so every event lands inside the stream window.
	go func() {
		for fire.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		if _, err := ex.SubmitProduct("web-team", "batch-compute", 2, []string{"r1", "r2"}, 500); err != nil {
			return
		}
		ex.RunAuction()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/events?max=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := readSSE(t, resp.Body, 3)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].env.Source != market.EventSource || events[0].env.Kind != market.EvOrderSubmitted {
		t.Fatalf("first event = %s/%s", events[0].env.Source, events[0].env.Kind)
	}
	var lastSeq uint64
	for i, ev := range events {
		if ev.id == "" || ev.event == "" || ev.env.Kind != ev.event {
			t.Fatalf("frame %d malformed: %+v", i, ev)
		}
		if ev.env.Seq <= lastSeq {
			t.Fatalf("seq not increasing at frame %d: %d after %d", i, ev.env.Seq, lastSeq)
		}
		lastSeq = ev.env.Seq
		if ev.env.Payload == nil {
			t.Fatalf("frame %d has no payload", i)
		}
	}
}

func TestEventsSSEKindFilter(t *testing.T) {
	s, ex, fire := telemetryFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	go func() {
		for fire.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		if _, err := ex.SubmitProduct("web-team", "batch-compute", 2, []string{"r1", "r2"}, 500); err != nil {
			return
		}
		ex.RunAuction()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/api/events?kinds="+market.EvAuctionCleared+"&max=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body, 1)
	if len(events) != 1 || events[0].env.Kind != market.EvAuctionCleared {
		t.Fatalf("filtered stream = %+v", events)
	}
}

func TestEventsParamAndAttachmentErrors(t *testing.T) {
	// No firehose attached: the feed 404s rather than serving silence.
	bare, _ := newTestServer(t)
	bts := httptest.NewServer(bare)
	defer bts.Close()
	if code, body := get(t, bts, "/api/events"); code != http.StatusNotFound || !strings.Contains(body, "telemetry not attached") {
		t.Fatalf("bare /api/events = %d %q", code, body)
	}

	s, _, _ := telemetryFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, q := range []string{"max=0", "max=-1", "max=zebra", "buf=0", "buf=nope"} {
		if code, _ := get(t, ts, "/api/events?"+q); code != http.StatusBadRequest {
			t.Errorf("/api/events?%s = %d, want 400", q, code)
		}
	}
}

// TestSlowSubscriberDropsNotStalls is the backpressure contract: a
// stalled SSE client with a one-slot buffer must never block settlement,
// and the drop counts it eventually observes are monotonic.
func TestSlowSubscriberDropsNotStalls(t *testing.T) {
	s, ex, fire := telemetryFixture(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/events?buf=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for fire.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Flood the market while the client reads nothing. Every round must
	// complete promptly whether or not the handler is wedged on a full
	// socket; the subscription's one-slot buffer overflows instead.
	deadline := time.Now().Add(10 * time.Second)
	rounds := 0
	for fire.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops observed before deadline; publisher may be blocking")
		}
		if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r1", "r2"}, 500); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ex.RunAuction(); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if got := ex.Metrics().Auctions; got != uint64(rounds) {
		t.Fatalf("settlement stalled: %d auctions after %d rounds", got, rounds)
	}

	// Now drain the stalled stream: the envelopes' dropped counters must
	// be monotonic non-decreasing. The stream never closes on its own
	// once the flood stops, so cancel the request after a grace period
	// and read whatever was buffered.
	time.AfterFunc(2*time.Second, cancel)
	events := readSSE(t, io.LimitReader(resp.Body, 1<<16), 64)
	if len(events) == 0 {
		t.Fatal("no events readable from stalled stream")
	}
	var last uint64
	for i, ev := range events {
		if ev.env.Dropped < last {
			t.Fatalf("dropped count regressed at frame %d: %d after %d", i, ev.env.Dropped, last)
		}
		last = ev.env.Dropped
	}
}

// fuzzEventsServer is a shared fixture with a firehose attached, so the
// fuzzed feed exercises the real subscribe path rather than the 404.
var fuzzEventsServer = sync.OnceValue(func() *httptest.Server {
	f := cluster.NewFleet()
	c := cluster.New("fz", nil)
	c.AddMachines(4, cluster.Usage{CPU: 8, RAM: 16, Disk: 4})
	if err := f.AddCluster(c); err != nil {
		panic(err)
	}
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e6, Telemetry: telemetry.NewFirehose()})
	if err != nil {
		panic(err)
	}
	if err := ex.OpenAccount("fz-team"); err != nil {
		panic(err)
	}
	return httptest.NewServer(New(ex))
})

// FuzzEventsQueryParams asserts the SSE feed's error envelope: whatever
// the query string, the response is 200, 400, or 405 — never a 5xx.
func FuzzEventsQueryParams(f *testing.F) {
	f.Add("GET", "order-submitted,auction-cleared", "market", "3", "16")
	f.Add("POST", "", "", "", "")
	f.Add("GET", ",,", "fed", "-1", "0")
	f.Add("GET", "x", "y", "zebra", "99999999999999999999")
	f.Add("HEAD", "\x00", "\"", "1e3", "+5")
	f.Fuzz(func(t *testing.T, method, kinds, source, max, buf string) {
		ts := fuzzEventsServer()
		q := url.Values{}
		if kinds != "" {
			q.Set("kinds", kinds)
		}
		if source != "" {
			q.Set("source", source)
		}
		if max != "" {
			q.Set("max", max)
		}
		if buf != "" {
			q.Set("buf", buf)
		}
		// SSE streams block until events arrive; bound each probe so the
		// fuzzer sees the status line and moves on.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, ts.URL+"/api/events?"+q.Encode(), nil)
		if err != nil {
			t.Skip() // fuzzer invented an invalid method string
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return // deadline hit before headers; nothing to assert
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("%s /api/events?%s = %d, want 200/400/405", method, q.Encode(), resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
	})
}

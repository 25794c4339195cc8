package webui

import (
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
	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

func newTestServer(t *testing.T) (*Server, *market.Exchange) {
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
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("web-team"); err != nil {
		t.Fatal(err)
	}
	return New(ex), ex
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func postForm(t *testing.T, ts *httptest.Server, path string, form url.Values) (int, string) {
	t.Helper()
	resp, err := http.PostForm(ts.URL+path, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestSummaryPage(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"Market summary", "r1", "r2", "CPU price"} {
		if !strings.Contains(body, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	// r1 is hot, so it should be highlighted.
	if !strings.Contains(body, `class="hot"`) {
		t.Error("hot cluster not highlighted")
	}
}

func TestNotFound(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code, _ := get(t, ts, "/nope"); code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
}

func TestBidFlow(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Step 1 page lists products.
	code, body := get(t, ts, "/bid")
	if code != http.StatusOK || !strings.Contains(body, "gfs-storage") {
		t.Fatalf("step 1: %d\n%s", code, body)
	}

	// Step 2 preview shows covering resources and cost.
	form := url.Values{
		"team":     {"web-team"},
		"product":  {"gfs-storage"},
		"qty":      {"10"},
		"clusters": {"r1, r2"},
	}
	code, body = postForm(t, ts, "/bid/preview", form)
	if code != http.StatusOK {
		t.Fatalf("step 2 status = %d", code)
	}
	for _, want := range []string{"covering", "r1", "r2", "Maximum bid price"} {
		if !strings.Contains(strings.ToLower(body), strings.ToLower(want)) {
			t.Errorf("step 2 missing %q:\n%s", want, body)
		}
	}

	// Submit creates the order.
	form.Set("limit", "400")
	code, body = postForm(t, ts, "/bid/submit", form)
	if code != http.StatusOK || !strings.Contains(body, "Bid submitted") {
		t.Fatalf("submit: %d\n%s", code, body)
	}
	if len(ex.OpenOrders()) != 1 {
		t.Fatalf("open orders = %d", len(ex.OpenOrders()))
	}

	// Orders page lists it.
	code, body = get(t, ts, "/orders")
	if code != http.StatusOK || !strings.Contains(body, "web-team") {
		t.Fatalf("orders: %d", code)
	}

	// Run the auction via the admin button.
	code, _ = postForm(t, ts, "/auction/run", nil)
	if code != http.StatusOK { // after redirect to "/"
		t.Fatalf("auction run: %d", code)
	}
	if len(ex.History()) != 1 {
		t.Fatalf("auctions = %d", len(ex.History()))
	}
}

func TestBidFlowErrors(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// GET on POST-only endpoints.
	if code, _ := get(t, ts, "/bid/preview"); code != http.StatusMethodNotAllowed {
		t.Errorf("preview GET = %d", code)
	}
	if code, _ := get(t, ts, "/bid/submit"); code != http.StatusMethodNotAllowed {
		t.Errorf("submit GET = %d", code)
	}
	if code, _ := get(t, ts, "/auction/run"); code != http.StatusMethodNotAllowed {
		t.Errorf("auction GET = %d", code)
	}

	// Bad quantity redirects back to step 1 with an error message.
	form := url.Values{
		"team": {"web-team"}, "product": {"gfs-storage"},
		"qty": {"-2"}, "clusters": {"r1"},
	}
	code, body := postForm(t, ts, "/bid/preview", form)
	if code != http.StatusOK || !strings.Contains(body, "quantity") {
		t.Errorf("bad qty: %d", code)
	}
	// Unknown product.
	form.Set("qty", "1")
	form.Set("product", "nope")
	if _, body := postForm(t, ts, "/bid/preview", form); !strings.Contains(body, "unknown product") {
		t.Error("unknown product not reported")
	}
	// Unknown cluster.
	form.Set("product", "gfs-storage")
	form.Set("clusters", "mars")
	if _, body := postForm(t, ts, "/bid/preview", form); !strings.Contains(strings.ToLower(body), "unknown cluster") {
		t.Error("unknown cluster not reported")
	}
	// Submitting over budget fails back to step 1.
	form.Set("clusters", "r2")
	form.Set("limit", "999999")
	if _, body := postForm(t, ts, "/bid/submit", form); !strings.Contains(body, "budget") {
		t.Error("over-budget submit not reported")
	}
	// Auction with no orders returns conflict.
	if code, _ := postForm(t, ts, "/auction/run", nil); code != http.StatusConflict {
		t.Errorf("empty auction run = %d", code)
	}
}

func TestTeamsPage(t *testing.T) {
	s, _ := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, body := get(t, ts, "/teams")
	if code != http.StatusOK || !strings.Contains(body, "web-team") || !strings.Contains(body, "5000.00") {
		t.Fatalf("teams: %d\n%s", code, body)
	}
}

func TestJSONEndpoints(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// summary.json parses into rows.
	code, body := get(t, ts, "/api/summary.json")
	if code != http.StatusOK {
		t.Fatalf("summary.json = %d", code)
	}
	var rows []market.ClusterSummary
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("summary.json decode: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d", len(rows))
	}

	// prices.json falls back to reserve prices with no open orders.
	code, body = get(t, ts, "/api/prices.json")
	if code != http.StatusOK {
		t.Fatalf("prices.json = %d", code)
	}
	var pv pricesView
	if err := json.Unmarshal([]byte(body), &pv); err != nil {
		t.Fatal(err)
	}
	if len(pv.Prices) != 6 {
		t.Errorf("prices = %d entries", len(pv.Prices))
	}
	if pv.Note != noteReserve {
		t.Errorf("empty-book note = %q, want %q", pv.Note, noteReserve)
	}
	if pv.Prices["r1/CPU"] <= pv.Prices["r2/CPU"] {
		t.Error("hot cluster not pricier in prices.json")
	}

	// history.json needs a settled auction.
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 2, []string{"r2"}, 200); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts, "/api/history.json?cluster=r2&dim=cpu")
	if code != http.StatusOK {
		t.Fatalf("history.json = %d", code)
	}
	var hist []float64
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Errorf("history = %v", hist)
	}
	// Error paths.
	if code, _ := get(t, ts, "/api/history.json?cluster=r2&dim=warp"); code != http.StatusBadRequest {
		t.Errorf("bad dim = %d", code)
	}
	if code, _ := get(t, ts, "/api/history.json?cluster=zz&dim=cpu"); code != http.StatusNotFound {
		t.Errorf("bad cluster = %d", code)
	}
}

// TestPricesJSONCached pins the single-flight cache on the expensive
// preliminary-prices simulation: within the TTL, pollers get the cached
// vector instead of each running a clock simulation.
func TestPricesJSONCached(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, first := get(t, ts, "/api/prices.json")
	// Change the book; a cached response must still be served within TTL.
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, 100); err != nil {
		t.Fatal(err)
	}
	if _, second := get(t, ts, "/api/prices.json"); second != first {
		t.Error("prices.json recomputed within TTL")
	}
	// Concurrent pollers all succeed (and share the cache).
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/api/prices.json")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestPricesJSONCachedBytes pins what the cache holds: the encoded body,
// equal to encoding/json's rendering of the view the endpoint describes
// (plus the Encoder's newline), and served as is on a hit.
func TestPricesJSONCachedBytes(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	wantBody := func(view pricesView, prices []float64) string {
		reg := ex.Registry()
		view.Prices = map[string]float64{}
		for i := 0; i < reg.Len(); i++ {
			view.Prices[reg.Pool(i).String()] = prices[i]
		}
		raw, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw) + "\n"
	}
	reserve, err := ex.ReservePrices()
	if err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, ts, "/api/prices.json"); body != wantBody(pricesView{Note: noteReserve}, reserve) {
		t.Fatalf("empty-book body:\n%s", body)
	}
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, 100); err != nil {
		t.Fatal(err)
	}
	// A hit serves the cached bytes, whatever the book did since.
	s.pricesMu.Lock()
	cached := string(s.pricesBody)
	s.pricesMu.Unlock()
	if _, body := get(t, ts, "/api/prices.json"); body != cached {
		t.Fatalf("cache hit served %q, cache holds %q", body, cached)
	}
	// A fresh server over the open order runs the preliminary clock.
	ts2 := httptest.NewServer(New(ex))
	defer ts2.Close()
	prices, converged, err := ex.PreliminaryPrices()
	if err != nil || !converged {
		t.Fatalf("preliminary clock: converged=%v err=%v", converged, err)
	}
	if _, body := get(t, ts2, "/api/prices.json"); body != wantBody(pricesView{Converged: true}, prices) {
		t.Fatalf("open-book body:\n%s", body)
	}
}

// TestPricesRefreshServesCachedBody pins the refresh that parks no
// poller: while one caller recomputes an expired body outside pricesMu,
// every other poll is answered with the cached bytes, whatever the book
// did since; once no refresh is in flight, an expired body is recomputed.
func TestPricesRefreshServesCachedBody(t *testing.T) {
	s, ex := newTestServer(t)
	poll := func() string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/prices.json", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("prices.json answered %d", rec.Code)
		}
		return rec.Body.String()
	}
	reserve := poll()
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, 100); err != nil {
		t.Fatal(err)
	}
	expire := func(refreshing bool) {
		s.pricesMu.Lock()
		s.pricesAt, s.pricesRefreshing = time.Now().Add(-time.Hour), refreshing
		s.pricesMu.Unlock()
	}
	expire(true)
	if got := poll(); got != reserve {
		t.Fatalf("a poll during a refresh got %q, the cache holds %q", got, reserve)
	}
	expire(false)
	if got := poll(); got == reserve || !strings.Contains(got, `"converged":true`) {
		t.Fatalf("an expired body with no refresh in flight was not recomputed over the open order: %q", got)
	}
	s.pricesMu.Lock()
	refreshing := s.pricesRefreshing
	s.pricesMu.Unlock()
	if refreshing {
		t.Fatal("the refresh left its in-flight mark behind")
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "-" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := sparkline([]float64{0, 0.5, 1})
	if len([]rune(got)) != 3 {
		t.Errorf("sparkline runes = %q", got)
	}
	r := []rune(got)
	if r[0] >= r[2] {
		t.Errorf("sparkline not increasing: %q", got)
	}
	// Flat history renders without dividing by zero.
	if flat := sparkline([]float64{2, 2}); len([]rune(flat)) != 2 {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestSplitCSV(t *testing.T) {
	got := splitCSV(nil, " a, b ,, c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitCSV = %v", got)
	}
	for _, s := range []string{"", ",", " , ,"} {
		if got := splitCSV(nil, s); got != nil {
			t.Errorf("splitCSV(%q) = %v", s, got)
		}
	}
	if got := splitCSV([]string{"kept"}, "x,"); len(got) != 2 || got[0] != "kept" || got[1] != "x" {
		t.Errorf("splitCSV appended %v", got)
	}
}

func TestAuctionsJSON(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Empty before any auction.
	code, body := get(t, ts, "/api/auctions.json")
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty auctions: %d %q", code, body)
	}
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 2, []string{"r2"}, 200); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts, "/api/auctions.json")
	if code != http.StatusOK {
		t.Fatalf("auctions.json = %d", code)
	}
	var recs []map[string]any
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0]["converged"] != true || recs[0]["number"].(float64) != 1 {
		t.Errorf("record = %v", recs[0])
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, 100); err != nil {
		t.Fatal(err)
	}
	// Hammer mixed read endpoints concurrently; the exchange's own
	// locking must keep them consistent — there is no server mutex
	// serializing requests any more (run with -race).
	done := make(chan error, 24)
	for i := 0; i < 24; i++ {
		path := []string{"/", "/orders", "/teams", "/api/summary.json"}[i%4]
		go func(p string) {
			resp, err := http.Get(ts.URL + p)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("%s: status %d", p, resp.StatusCode)
				}
			}
			done <- err
		}(path)
	}
	for i := 0; i < 24; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestParallelTrafficWithEpochLoop fires parallel read and write
// requests at the server while an epoch auction loop settles the book —
// the acceptance scenario for the concurrent Exchange (run with -race).
func TestParallelTrafficWithEpochLoop(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	loop, err := market.NewLoop(ex, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go func() { defer close(loopDone); loop.Run(ctx) }()

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch w % 4 {
				case 0: // bid entry
					form := url.Values{
						"team":     {"web-team"},
						"product":  {"batch-compute"},
						"qty":      {"1"},
						"clusters": {"r2"},
						"limit":    {"30"},
					}
					resp, err := http.PostForm(ts.URL+"/bid/submit", form)
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					resp.Body.Close()
				case 1: // manual settlement racing the loop
					resp, err := http.PostForm(ts.URL+"/auction/run", nil)
					if err != nil {
						t.Errorf("auction: %v", err)
						return
					}
					// Conflict (empty book) is legitimate here.
					resp.Body.Close()
				default: // reads
					p := []string{"/", "/orders", "/teams", "/api/summary.json", "/api/auctions.json"}[i%5]
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						t.Errorf("get %s: %v", p, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", p, resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	cancel()
	<-loopDone

	if vs := invariant.CheckLedgerBalanced(ex.Ledger(), 1e-6); len(vs) != 0 {
		t.Errorf("ledger unbalanced after parallel traffic: %v", vs)
	}
}

// TestPricesJSONNonConverged pins the bid-window fix: when the
// preliminary clock hits MaxRounds, the endpoint serves the in-progress
// prices marked "preliminary, not converged" instead of failing over to
// reserve prices (or a 500).
func TestPricesJSONNonConverged(t *testing.T) {
	f := cluster.NewFleet()
	c := cluster.New("r1", nil)
	c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
	if err := f.AddCluster(c); err != nil {
		t.Fatal(err)
	}
	// Two rounds can neither clear the oversized demand nor price out a
	// near-unlimited buyer.
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e7, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("web-team"); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 50, []string{"r1"}, 1e6); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ex))
	defer ts.Close()

	code, body := get(t, ts, "/api/prices.json")
	if code != http.StatusOK {
		t.Fatalf("prices.json = %d, want 200", code)
	}
	var pv pricesView
	if err := json.Unmarshal([]byte(body), &pv); err != nil {
		t.Fatal(err)
	}
	if pv.Converged {
		t.Error("non-clearing clock reported converged")
	}
	if pv.Note != noteNotConverged {
		t.Errorf("note = %q, want %q", pv.Note, noteNotConverged)
	}
	if len(pv.Prices) != ex.Registry().Len() {
		t.Errorf("prices = %d entries, want %d", len(pv.Prices), ex.Registry().Len())
	}
}

// TestOrdersPageShowsGoverningLimit: the orders page reads the rows
// /api/orders.json does, so a vector-π order, whose scalar Limit the
// proxy ignores, shows the largest of its bundle limits on both.
func TestOrdersPageShowsGoverningLimit(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	reg := ex.Registry()
	a, b := reg.Zero(), reg.Zero()
	a[0], b[reg.Len()-1] = 1, 1
	if _, err := ex.Submit("web-team", &core.Bid{User: "web-team/vector", Bundles: []resource.Vector{a, b},
		BundleLimits: []float64{12.5, 37.25}}); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, ts, "/api/orders.json")
	if !strings.Contains(body, `"limit":37.25`) {
		t.Fatalf("orders.json does not show the governing limit:\n%s", body)
	}
	code, body := get(t, ts, "/orders")
	if code != http.StatusOK || !strings.Contains(body, "<td>37.25</td>") || !strings.Contains(body, "web-team/vector") {
		t.Fatalf("orders page = %d, want the user and limit 37.25:\n%s", code, body)
	}
}

// TestOrdersJSONBounded pins the bounded polling endpoint: it returns
// the most recent orders, honors ?limit=N, defaults to a bound instead
// of cloning the whole book, and rejects malformed limits.
func TestOrdersJSONBounded(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, 5); err != nil {
			t.Fatal(err)
		}
	}
	code, body := get(t, ts, "/api/orders.json")
	if code != http.StatusOK {
		t.Fatalf("orders.json = %d", code)
	}
	var views []struct {
		ID     int    `json:"id"`
		Team   string `json:"team"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(views) != 5 || views[0].ID != 0 || views[4].ID != 4 {
		t.Fatalf("views = %+v", views)
	}
	if views[0].Team != "web-team" || views[0].Status != "open" {
		t.Fatalf("views[0] = %+v", views[0])
	}

	// limit trims to the most recent orders.
	code, body = get(t, ts, "/api/orders.json?limit=2")
	if code != http.StatusOK {
		t.Fatalf("limited orders.json = %d", code)
	}
	views = views[:0]
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].ID != 3 || views[1].ID != 4 {
		t.Fatalf("limited views = %+v", views)
	}

	for _, bad := range []string{"0", "-3", "zap"} {
		if code, _ := get(t, ts, "/api/orders.json?limit="+bad); code != http.StatusBadRequest {
			t.Errorf("limit=%s accepted with %d", bad, code)
		}
	}
	if code, _ := get(t, ts, "/orders?limit=bogus"); code != http.StatusBadRequest {
		t.Error("orders page accepted a bogus limit")
	}
	// The HTML page honors the bound too.
	code, body = get(t, ts, "/orders?limit=1")
	if code != http.StatusOK || strings.Count(body, "web-team/batch-compute") != 1 {
		t.Fatalf("orders page limit: %d\n%s", code, body)
	}

	// auctions.json keeps working with an explicit bound.
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts, "/api/auctions.json?limit=1")
	if code != http.StatusOK || !strings.Contains(body, `"number":1`) {
		t.Fatalf("auctions.json limit: %d\n%s", code, body)
	}
}

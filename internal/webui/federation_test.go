package webui

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// fedFixture builds a hot+cold two-region federation with one team and
// its global front end.
func fedFixture(t *testing.T) (*federation.Federation, *httptest.Server) {
	t.Helper()
	fed := newFedWorld(t, nil)
	ts := httptest.NewServer(NewFederated(fed))
	t.Cleanup(ts.Close)
	return fed, ts
}

// newFedWorld builds fedFixture's federation. A non-nil fire is the one
// firehose both regions and the router publish to, as in marketd.
func newFedWorld(t *testing.T, fire *telemetry.Firehose) *federation.Federation {
	t.Helper()
	mk := func(name string, util float64) *federation.Region {
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
		r, err := federation.NewRegion(name, fleet, market.Config{InitialBudget: 1e6, Telemetry: fire})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fed, err := federation.NewFederation(mk("hot", 0.85), mk("cold", 0.1))
	if err != nil {
		t.Fatal(err)
	}
	fed.AttachTelemetry(fire)
	if err := fed.OpenAccount("search"); err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestFedGlobalSummary(t *testing.T) {
	fed, ts := fedFixture(t)
	if _, err := fed.SubmitProduct("search", "batch-compute", 2, []string{"hot-r1", "cold-r1"}, 500); err != nil {
		t.Fatal(err)
	}
	fed.Tick()

	code, body := get(t, ts, "/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"Global resource market", "2 regions federated",
		`href="/region/hot/"`, `href="/region/cold/"`,
		"Price board", "Routed orders", "cold:won",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("global page missing %q", want)
		}
	}
	if code, _ := get(t, ts, "/no-such-page"); code != 404 {
		t.Errorf("unknown path status = %d", code)
	}
}

func TestFedRegionDrillDown(t *testing.T) {
	_, ts := fedFixture(t)
	code, body := get(t, ts, "/region/cold/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	// The regional page must link within its own mount, not the global
	// root, so navigation stays inside the drill-down.
	for _, want := range []string{
		"Market summary", `href="/region/cold/bid"`, `action="/region/cold/auction/run"`, "cold-r1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("region page missing %q", want)
		}
	}

	// The two-step bid flow works through the mount: a bad submission
	// redirects back into the region's own bid page.
	resp, err := ts.Client().PostForm(ts.URL+"/region/cold/bid/preview", url.Values{
		"team": {"search"}, "product": {"batch-compute"}, "qty": {"-3"}, "clusters": {"cold-r1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Request.URL.Path; !strings.HasPrefix(got, "/region/cold/bid") {
		t.Errorf("error redirect landed on %q, want /region/cold/bid", got)
	}

	// A good submission books an order on the cold region only.
	resp, err = ts.Client().PostForm(ts.URL+"/region/cold/bid/submit", url.Values{
		"team": {"search"}, "product": {"batch-compute"}, "qty": {"1"},
		"clusters": {"cold-r1"}, "limit": {"50"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body2), "Bid submitted") {
		t.Errorf("submit response: %s", body2)
	}
	code, body = get(t, ts, "/region/cold/orders")
	if code != 200 || !strings.Contains(body, "open") {
		t.Errorf("orders page: %d %q", code, body)
	}
}

// TestFedManualSettle drives the -epoch 0 flow: settlement via POST
// /region/<name>/auction/run must go through the federation so routed
// orders advance and prices gossip.
func TestFedManualSettle(t *testing.T) {
	fed, ts := fedFixture(t)
	id, err := fed.SubmitProduct("search", "batch-compute", 2, []string{"hot-r1", "cold-r1"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().PostForm(ts.URL+"/region/cold/auction/run", url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 { // after following the 303 back to the region page
		t.Fatalf("settle status = %d", resp.StatusCode)
	}
	got, _ := fed.Order(id)
	if got.Status.String() != "won" || got.Region != "cold" {
		t.Fatalf("order = %s in %q after manual settle", got.Status, got.Region)
	}
	if st := fed.Stats(); st.Won != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Settling an empty book is a conflict, as on the regional server.
	resp, err = ts.Client().PostForm(ts.URL+"/region/cold/auction/run", url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Errorf("empty-book settle status = %d, want 409", resp.StatusCode)
	}
	// A global bid error redirect keeps special characters intact.
	resp, err = ts.Client().PostForm(ts.URL+"/bid/submit", url.Values{
		"team": {"search"}, "product": {"a&b"}, "qty": {"1"}, "clusters": {"cold-r1"}, "limit": {"5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `a&amp;b`) {
		t.Errorf("error lost special characters: %s", body)
	}
}

func TestFedFederationJSON(t *testing.T) {
	fed, ts := fedFixture(t)
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"cold-r1"}, 100); err != nil {
		t.Fatal(err)
	}
	fed.Tick()

	code, body := get(t, ts, "/api/federation.json")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var out struct {
		Regions []struct {
			Region   string `json:"region"`
			Auctions int    `json:"auctions"`
			Settled  int    `json:"settled"`
			Clearing bool   `json:"clearing"`
		} `json:"regions"`
		Stats federation.Stats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out.Regions) != 2 {
		t.Fatalf("regions = %d", len(out.Regions))
	}
	for _, r := range out.Regions {
		if r.Region == "cold" && (r.Auctions != 1 || r.Settled != 1 || !r.Clearing) {
			t.Errorf("cold region JSON = %+v", r)
		}
	}
	if out.Stats.Won != 1 {
		t.Errorf("stats = %+v", out.Stats)
	}

	// Regional JSON APIs remain reachable through the mount.
	code, body = get(t, ts, "/region/cold/api/auctions.json")
	if code != 200 || !strings.Contains(body, `"settled":1`) {
		t.Errorf("regional auctions JSON: %d %s", code, body)
	}
}

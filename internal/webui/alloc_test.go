package webui

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// allocsNetOfHarness counts the allocations one request to h makes,
// less what building the request and recorder and dispatching to a
// handler that does nothing cost.
func allocsNetOfHarness(h http.Handler, method, target, form string) float64 {
	run := func(h http.Handler) func() {
		return func() {
			var req *http.Request
			if form != "" {
				req = httptest.NewRequest(method, target, strings.NewReader(form))
				req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			} else {
				req = httptest.NewRequest(method, target, nil)
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	const runs = 200
	harness := testing.AllocsPerRun(runs, run(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})))
	return testing.AllocsPerRun(runs, run(h)) - harness
}

// TestBidSubmitAllocBudget bounds the allocations of one accepted bid
// through /bid/submit: form parsing, the exchange's booking and the
// acknowledgement page. The page is written from fragments rendered once
// at construction, so no template executes per request (the template
// path cost 174 allocations), and the form is read in place, its five
// values one string: 9 allocations, where r.FormValue and an order
// snapshot made 33.
func TestBidSubmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count")
	}
	s, ex := newTestServer(t)
	if err := ex.Disburse(1e12); err != nil {
		t.Fatal(err)
	}
	const budget = 12
	got := allocsNetOfHarness(s, "POST", "/bid/submit",
		"team=web-team&product=batch-compute&qty=1&clusters=r1,r2&limit=50")
	if n := ex.OpenOrderCount(); n < 200 {
		t.Fatalf("only %d bids booked: the runs were not accepted submits", n)
	}
	t.Logf("/bid/submit: %.1f allocations net of the harness", got)
	if got > budget {
		t.Fatalf("/bid/submit allocates %.1f per request, budget %d", got, budget)
	}
}

// TestOrdersJSONAllocBudget bounds the allocations of one
// /api/orders.json?limit=50 poll over a book of settled and open orders:
// rows read in place from the stripes into a pooled slice, encoded into a
// pooled buffer: 5 allocations. The reflection encoder and the sorting
// tail made 71 on this book, the append encoder over OrdersTail's
// snapshots 65.
func TestOrdersJSONAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count")
	}
	_, ex := newTestServer(t)
	if err := ex.Disburse(1e12); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, float64(5+i%7)); err != nil {
			t.Fatal(err)
		}
		if i == 80 {
			if _, _, err := ex.RunAuction(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const budget = 10
	got := allocsNetOfHarness(New(ex), "GET", "/api/orders.json?limit=50", "")
	t.Logf("/api/orders.json?limit=50: %.1f allocations net of the harness", got)
	if got > budget {
		t.Fatalf("/api/orders.json?limit=50 allocates %.1f per request, budget %d", got, budget)
	}
}

// TestFedBidSubmitAllocBudget is TestBidSubmitAllocBudget for the
// federated front end's /bid/submit, which routes a two-region XOR
// order: 10 allocations, 11 under the race detector. The cluster list is
// split into a stack buffer, as on the single-market form; splitting it
// onto the heap made 12.
func TestFedBidSubmitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count")
	}
	fed, _ := fedFixture(t)
	const budget = 11
	got := allocsNetOfHarness(NewFederated(fed), "POST", "/bid/submit",
		"team=search&product=batch-compute&qty=1&clusters=hot-r1,cold-r1&limit=50")
	if n := len(fed.Orders()); n < 200 {
		t.Fatalf("only %d bids routed: the runs were not accepted submits", n)
	}
	t.Logf("federated /bid/submit: %.1f allocations net of the harness", got)
	if got > budget {
		t.Fatalf("federated /bid/submit allocates %.1f per request, budget %d", got, budget)
	}
}

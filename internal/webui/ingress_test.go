package webui

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
)

// badNumbers are form values that strconv.ParseFloat accepts but bid
// ingress must reject: non-finite, non-positive, or not a number at
// all. Booking any of them would either poison auction arithmetic
// (NaN/Inf reach budget reservation and the cover vector) or book an
// order that can never win.
var badNumbers = []string{"NaN", "nan", "+Inf", "-Inf", "Infinity", "0", "-5", "1e999", "abc", ""}

// TestBidSubmitRejectsNonFinite is the regression test for the ingress
// hole where /bid/submit parsed "NaN" and "+Inf" limits (and
// quantities) unguarded and forwarded them into the market layer. Both
// fields must 400 at the door, and nothing may reach the order book.
func TestBidSubmitRejectsNonFinite(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, bad := range badNumbers {
		form := url.Values{
			"team": {"web-team"}, "product": {"batch-compute"},
			"qty": {"1"}, "clusters": {"r2"}, "limit": {"50"},
		}
		form.Set("limit", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("limit=%q: got %d, want 400 naming the limit", bad, code)
		}
		form.Set("limit", "50")
		form.Set("qty", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "quantity") {
			t.Errorf("qty=%q: got %d, want 400 naming the quantity", bad, code)
		}
		// The preview step guards quantity the same way (via redirect,
		// its established error channel) so NaN cannot price a cover.
		if _, body := postForm(t, ts, "/bid/preview", form); !strings.Contains(body, "quantity") {
			t.Errorf("preview qty=%q not rejected", bad)
		}
	}
	if n := len(ex.OpenOrders()); n != 0 {
		t.Fatalf("rejected submissions booked %d orders", n)
	}
}

// TestFedGlobalBidRejectsNonFinite covers the same hole on the
// federated front end's global bid form, which routes through
// Federation.SubmitProduct.
func TestFedGlobalBidRejectsNonFinite(t *testing.T) {
	fed, ts := fedFixture(t)

	for _, bad := range badNumbers {
		form := url.Values{
			"team": {"search"}, "product": {"batch-compute"},
			"qty": {"1"}, "clusters": {"hot-r1,cold-r1"}, "limit": {"500"},
		}
		form.Set("limit", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("limit=%q: got %d, want 400 naming the limit", bad, code)
		}
		form.Set("limit", "500")
		form.Set("qty", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "quantity") {
			t.Errorf("qty=%q: got %d, want 400 naming the quantity", bad, code)
		}
	}
	if n := len(fed.OrdersTail(10)); n != 0 {
		t.Fatalf("rejected submissions booked %d federated orders", n)
	}
}

// TestSubmitProductRejectsNonFinite pins the defense-in-depth layer:
// even a caller bypassing the HTTP front end (the Go API, a future RPC
// ingress) must not be able to book a non-finite or non-positive
// quantity or limit. qty <= 0 alone waves NaN through, since every
// comparison with NaN is false.
func TestSubmitProductRejectsNonFinite(t *testing.T) {
	_, ex := newTestServer(t)
	fed, _ := fedFixture(t)

	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct{ qty, limit float64 }{
		{nan, 50}, {1, nan}, {inf, 50}, {1, inf}, {1, -inf},
		{-1, 50}, {0, 50}, {1, 0}, {1, -5},
	}
	for _, c := range cases {
		if _, err := ex.SubmitProduct("web-team", "batch-compute", c.qty, []string{"r2"}, c.limit); err == nil {
			t.Errorf("market.SubmitProduct(qty=%g, limit=%g) accepted", c.qty, c.limit)
		}
		if _, err := fed.SubmitProduct("search", "batch-compute", c.qty, []string{"cold-r1"}, c.limit); err == nil {
			t.Errorf("federation.SubmitProduct(qty=%g, limit=%g) accepted", c.qty, c.limit)
		}
	}
}

// fuzzFedServerOnce builds one shared single-region FedServer for the
// bid-entry fuzzer, mirroring fuzzServerOnce.
var fuzzFedServerOnce = sync.OnceValue(func() *FedServer {
	f := cluster.NewFleet()
	c := cluster.New("fz-r1", nil)
	c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
	if err := f.AddCluster(c); err != nil {
		panic(err)
	}
	r, err := federation.NewRegion("fz", f, market.Config{InitialBudget: 5000})
	if err != nil {
		panic(err)
	}
	fed, err := federation.NewFederation(r)
	if err != nil {
		panic(err)
	}
	if err := fed.OpenAccount("web-team"); err != nil {
		panic(err)
	}
	return NewFederated(fed)
})

// FuzzBidSubmit hammers both bid-entry front ends with arbitrary qty
// and limit strings. Properties:
//
//  1. no handler panics;
//  2. every response is a deliberate status — 200 for a booked or
//     cleanly-refused bid (error redirects land on 200 pages), 400 for
//     malformed numbers — never a 5xx;
//  3. no order is ever booked with a non-finite or non-positive
//     quantity or limit.
func FuzzBidSubmit(f *testing.F) {
	f.Add("1", "50")
	f.Add("NaN", "50")
	f.Add("1", "NaN")
	f.Add("+Inf", "50")
	f.Add("1", "+Inf")
	f.Add("-Inf", "-Inf")
	f.Add("0", "0")
	f.Add("-3", "1e999")
	f.Add("", "")
	f.Add("1e3", "0x1p-10")
	f.Fuzz(func(t *testing.T, qty, limit string) {
		s := fuzzServerOnce()
		fs := fuzzFedServerOnce()
		form := url.Values{
			"team": {"web-team"}, "product": {"batch-compute"},
			"qty": {qty}, "clusters": {"r2"}, "limit": {limit},
		}
		fedForm := url.Values{
			"team": {"web-team"}, "product": {"batch-compute"},
			"qty": {qty}, "clusters": {"fz-r1"}, "limit": {limit},
		}
		for _, tc := range []struct {
			h    http.Handler
			path string
			form url.Values
		}{
			{s, "/bid/submit", form},
			{fs, "/bid/submit", fedForm},
		} {
			req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, req)
			switch rec.Code {
			case 200, 303, 400:
			default:
				t.Fatalf("POST %s qty=%q limit=%q -> %d:\n%s", tc.path, qty, limit, rec.Code, rec.Body.String())
			}
		}
	})
}

// formRequest builds a bid-form request from a raw body, a raw query and
// a Content-Type ("" sends none).
func formRequest(method string, body io.Reader, query, contentType string) *http.Request {
	r := &http.Request{Method: method, URL: &url.URL{Path: "/bid/submit", RawQuery: query},
		Header: http.Header{}, Body: io.NopCloser(body)}
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	return r
}

// FuzzBidForm differentially checks the in-place form reader against
// r.FormValue on the five bid fields, for any body, raw query and
// Content-Type — parameters, a missing type and multipart included — and
// the query scan behind pollLimit against url.ParseQuery.
func FuzzBidForm(f *testing.F) {
	f.Add("team=web-team&product=batch-compute&qty=1&clusters=r1,r2&limit=50", "", formType)
	f.Add("te%61m=%41%42+c&qty=1%2E5&limit=+5+&%63lusters=r1%2C%20r2", "", formType)
	f.Add("team=a;b&team=c&qty=1;2&limit=7", "qty=3&limit=;", formType)
	f.Add("team=&team=x&=y&&qty&clusters==r1&limit=1=2", "team=q&limit=9&product=p", formType)
	f.Add("team=%zz&team=%4&team=ok&limit=%&qty=%2", "limit=%41&qty=%zz&qty=8", formType)
	f.Add("qty=1", "qty=2&team=from+query&clusters=%72%31", formType)
	f.Add("team=a", "", "application/x-www-form-urlencoded; charset=utf-8")
	f.Add("team=a", "team=b", "Application/X-WWW-Form-URLENCODED ; charset=\"utf-8\"")
	f.Add("team=a", "team=b", "application/x-www-form-urlencoded; =bad")
	f.Add("team=a", "team=b", "application/x-www-form-urlencoded;;")
	f.Add("team=a", "team=b", "")
	f.Add("team=a", "team=b", "text/plain")
	f.Add("--X\r\nContent-Disposition: form-data; name=\"team\"\r\n\r\nmultipart\r\n--X--\r\n", "team=q&qty=1",
		"multipart/form-data; boundary=X")
	f.Add("t+eam=1&team+=2&%74%65%61%6D=\xff%00&product=%E2%82%AC", "", formType)
	f.Fuzz(func(t *testing.T, body, query, contentType string) {
		got := readBidForm(formRequest("POST", strings.NewReader(body), query, contentType))
		if want := formValues(formRequest("POST", strings.NewReader(body), query, contentType)); got != want {
			t.Fatalf("body %q query %q type %q:\n got %+v\nwant %+v", body, query, contentType, got, want)
		}
		vals, _ := url.ParseQuery(query)
		for _, k := range bidFields {
			if got, want := queryValue(query, k), vals.Get(k); got != want {
				t.Fatalf("query %q: %s = %q, url.ParseQuery says %q", query, k, got, want)
			}
		}
	})
}

// TestBidFormMatchesFormValue covers what FuzzBidForm's inputs cannot
// reach: a body over and at net/http's 10 MB cap, a body whose read
// fails, a form parsed before the handler, and methods whose body
// ParseForm does not read.
func TestBidFormMatchesFormValue(t *testing.T) {
	const query = "team=query&limit=5"
	const head = "team=body&qty=2&clusters="
	big := func(n int) string { return head + strings.Repeat("r", n-len(head)) }
	cases := []struct {
		name, method string
		body         func() io.Reader
		parsed       bool
	}{
		{"over the cap", "POST", func() io.Reader { return strings.NewReader(big(maxFormBody + 1)) }, false},
		{"at the cap", "POST", func() io.Reader { return strings.NewReader(big(maxFormBody)) }, false},
		{"read fails", "POST", func() io.Reader {
			return io.MultiReader(strings.NewReader("team=body&qty=2"), iotest.ErrReader(errors.New("connection reset")))
		}, false},
		{"parsed before", "POST", func() io.Reader { return strings.NewReader("team=body&qty=2") }, true},
		{"PUT", "PUT", func() io.Reader { return strings.NewReader("team=body&qty=2") }, false},
		{"GET", "GET", func() io.Reader { return strings.NewReader("team=body&qty=2") }, false},
	}
	for _, tc := range cases {
		r := formRequest(tc.method, tc.body(), query, formType)
		want := formValues(formRequest(tc.method, tc.body(), query, formType))
		if tc.parsed {
			if err := r.ParseForm(); err != nil {
				t.Fatal(err)
			}
		}
		if got := readBidForm(r); got != want {
			t.Errorf("%s: got %.80q, want %.80q", tc.name, got, want)
		}
	}
}

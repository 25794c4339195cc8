package webui

// The three responses the polling front end and the bid form exercise —
// the bid acknowledgement, /api/orders.json and /api/prices.json — are
// pinned byte for byte (status, Content-Type and body) against a fixture
// recorded by the template/reflection implementation they replaced, on
// the root server and on one mounted under a region prefix.
//
// WEBUI_GOLDEN_OUT=1 go test -run TestFrontDoorGolden ./internal/webui
// rewrites the fixture with the code under test as the writer.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
)

const goldenFile = "testdata/frontdoor.golden"

// goldenResponse is one recorded request and what it answered.
type goldenResponse struct {
	Request     string
	Status      int
	ContentType string
	Body        string
}

// oddTeam exercises every escaping rule of both encoders: HTML and JSON
// metacharacters, '+', NUL and other control bytes, U+2028/U+2029,
// noncharacters, and a byte that is not UTF-8.
const oddTeam = "Ünï <b>&'\"+\x00\x01\t\u2028\u2029\ufdd0\uffff\xff/ops"

// frontDoorScript drives one freshly built market through the three
// endpoints and returns every response in order.
func frontDoorScript(t *testing.T, prefix string) []goldenResponse {
	t.Helper()
	_, ex := newTestServer(t)
	if err := ex.OpenAccount(oddTeam); err != nil {
		t.Fatal(err)
	}
	// Room for a limit JSON spells in exponent form: 1e22 for each of
	// the two teams.
	if err := ex.Disburse(2e22); err != nil {
		t.Fatal(err)
	}
	s := NewWithPrefix(ex, prefix)
	var out []goldenResponse
	do := func(s *Server, method, target string, form url.Values) {
		var req *http.Request
		if form != nil {
			req = httptest.NewRequest(method, target, strings.NewReader(form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		} else {
			req = httptest.NewRequest(method, target, nil)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		name := method + " " + target
		if form != nil {
			name += " " + form.Encode()
		}
		out = append(out, goldenResponse{
			Request: name, Status: rec.Code,
			ContentType: rec.Header().Get("Content-Type"), Body: rec.Body.String(),
		})
	}
	bid := func(team, qty, clusters, limit string) url.Values {
		return url.Values{"team": {team}, "product": {"batch-compute"}, "qty": {qty}, "clusters": {clusters}, "limit": {limit}}
	}

	// Empty book: reserve prices, no orders.
	do(s, "GET", "/api/prices.json", nil)
	do(s, "GET", "/api/orders.json?limit=50", nil)
	// Acknowledgements, and the refusals around them.
	do(s, "POST", "/bid/submit", bid("web-team", "1", "r2", "50"))
	do(s, "POST", "/bid/submit", bid("  "+oddTeam+" ", "2", "r1,r2", "12.345"))
	do(s, "POST", "/bid/submit", bid("web-team", "0.5", "r1", "1e3"))
	do(s, "POST", "/bid/submit", bid(oddTeam, "3", "r2", "0.004999"))
	do(s, "POST", "/bid/submit", bid("nobody", "1", "r2", "50"))
	do(s, "POST", "/bid/submit", bid("web-team", "1", "r2", "NaN"))
	do(s, "GET", "/bid/submit", nil)
	// Settle, leave orders in every state, and poll.
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []float64{7.25, 0.0000001, 1e21} {
		if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, limit); err != nil {
			t.Fatal(err)
		}
	}
	late, err := ex.SubmitProduct(oddTeam, "batch-compute", 1, []string{"r1"}, 33.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Cancel(late); err != nil {
		t.Fatal(err)
	}
	do(s, "GET", "/api/orders.json?limit=50", nil)
	do(s, "GET", "/api/orders.json", nil)
	do(s, "GET", "/api/orders.json?limit=2", nil)
	do(s, "GET", "/api/orders.json?limit=0", nil)
	// A fresh server over the same book has a cold prices cache: the
	// preliminary clock over the open orders.
	do(NewWithPrefix(ex, prefix), "GET", "/api/prices.json", nil)
	return out
}

// goldenPrefixes are the mounts the fixture covers: the root server and
// a region drill-down, whose links carry the prefix.
var goldenPrefixes = []string{"", "/region/eu"}

// encodeGolden writes responses in a raw, length-prefixed form — bodies
// hold whatever bytes the handlers wrote, not necessarily UTF-8:
//
//	### <prefix> | <request>
//	<status> <body length> <content type>
//	<body>
func encodeGolden(b *bytes.Buffer, prefix string, rs []goldenResponse) {
	for _, r := range rs {
		fmt.Fprintf(b, "### %s | %s\n%d %d %s\n%s\n", prefix, r.Request, r.Status, len(r.Body), r.ContentType, r.Body)
	}
}

// decodeGolden parses what encodeGolden wrote.
func decodeGolden(raw []byte) ([]string, []goldenResponse, error) {
	var prefixes []string
	var out []goldenResponse
	for len(raw) > 0 {
		head, rest, ok := bytes.Cut(raw, []byte("\n"))
		name, ok2 := bytes.CutPrefix(head, []byte("### "))
		if !ok || !ok2 {
			return nil, nil, fmt.Errorf("bad record header %q", head)
		}
		prefix, req, _ := strings.Cut(string(name), " | ")
		meta, rest, _ := bytes.Cut(rest, []byte("\n"))
		var r goldenResponse
		var n int
		if _, err := fmt.Sscanf(string(meta), "%d %d", &r.Status, &n); err != nil {
			return nil, nil, fmt.Errorf("%s: bad status line %q: %v", req, meta, err)
		}
		if f := strings.SplitN(string(meta), " ", 3); len(f) == 3 {
			r.ContentType = f[2]
		}
		if len(rest) < n+1 || rest[n] != '\n' {
			return nil, nil, fmt.Errorf("%s: truncated body", req)
		}
		r.Request, r.Body = req, string(rest[:n])
		prefixes, out = append(prefixes, prefix), append(out, r)
		raw = rest[n+1:]
	}
	return prefixes, out, nil
}

// TestFrontDoorGolden holds the three endpoints to the recorded bytes.
func TestFrontDoorGolden(t *testing.T) {
	var b bytes.Buffer
	for _, prefix := range goldenPrefixes {
		encodeGolden(&b, prefix, frontDoorScript(t, prefix))
	}
	if os.Getenv("WEBUI_GOLDEN_OUT") != "" {
		if err := os.WriteFile(goldenFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	wantPrefixes, want, err := decodeGolden(raw)
	if err != nil {
		t.Fatal(err)
	}
	gotPrefixes, got, err := decodeGolden(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, fixture has %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g != w || gotPrefixes[i] != wantPrefixes[i] {
			t.Errorf("prefix %q, %s:\n got %d %q\n%s\nwant %d %q\n%s",
				wantPrefixes[i], w.Request, g.Status, g.ContentType, g.Body, w.Status, w.ContentType, w.Body)
		}
	}
}

// TestFrontDoorGoldenCoversEndpoints keeps the fixture honest about what
// it pins: every endpoint answers 200 somewhere in the script, and the
// escaping cases reached the bodies.
func TestFrontDoorGoldenCoversEndpoints(t *testing.T) {
	rs := frontDoorScript(t, "/region/eu")
	seen := map[string]bool{}
	for _, r := range rs {
		if r.Status == http.StatusOK {
			seen[strings.Fields(r.Request)[1]] = true
		}
	}
	for _, p := range []string{"/bid/submit", "/api/prices.json", "/api/orders.json?limit=50"} {
		if !seen[p] {
			t.Errorf("no 200 from %s in the script", p)
		}
	}
	var orders string
	for _, r := range rs {
		if r.Request == "GET /api/orders.json?limit=50" && r.Body != "[]\n" {
			orders = r.Body
		}
	}
	for _, frag := range []string{`\u003cb\u003e\u0026`, `\u2028\u2029`, `\ufffd`, `"cancelled"`, `"won"`, `1e+21`, `1e-7`} {
		if !strings.Contains(orders, frag) {
			t.Errorf("orders.json body lacks %s:\n%s", frag, orders)
		}
	}
	if m := rs[3].Body; !strings.Contains(m, "&lt;b&gt;&amp;&#39;&#34;&#43;\ufffd\x01") || !strings.Contains(m, "\ufdd0\uffff\xff/ops") {
		t.Errorf("odd-team acknowledgement not escaped as html/template does:\n%s", m)
	}
}

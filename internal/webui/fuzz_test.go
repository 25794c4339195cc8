package webui

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/market"
)

// fuzzServerOnce builds one shared Server over a tiny settled market;
// the fuzzer hammers its read-only endpoints, so one instance serves
// every execution.
var fuzzServerOnce = sync.OnceValue(func() *Server {
	f := cluster.NewFleet()
	for _, name := range []string{"r1", "r2"} {
		c := cluster.New(name, nil)
		c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
		if err := f.AddCluster(c); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	if err := f.FillToUtilization(rng, "r1", cluster.Usage{CPU: 0.8, RAM: 0.8, Disk: 0.8}); err != nil {
		panic(err)
	}
	ex, err := market.NewExchange(f, market.Config{InitialBudget: 5000})
	if err != nil {
		panic(err)
	}
	if err := ex.OpenAccount("web-team"); err != nil {
		panic(err)
	}
	if _, err := ex.SubmitProduct("web-team", "batch-compute", 1, []string{"r2"}, 500); err != nil {
		panic(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		panic(err)
	}
	return New(ex)
})

// FuzzQueryParams drives the polling endpoints with arbitrary limit,
// cluster, and dim query parameters. Properties:
//
//  1. no handler panics, whatever the parameters;
//  2. every response is a deliberate status — 200 for served data, 400
//     for malformed parameters, 404 for unknown pools — never a 5xx:
//     user input must not be able to reach an internal-error path.
func FuzzQueryParams(f *testing.F) {
	f.Add("100", "r1", "cpu")
	f.Add("", "", "")
	f.Add("0", "r1", "ram")
	f.Add("-5", "mars", "disk")
	f.Add("999999999999999999999999", "r1", "CPU")
	f.Add("10; DROP TABLE orders", "../../etc", "network")
	f.Add("1e3", "r1\x00", "cpu ")
	f.Add("NaN", "%2e%2e", "\u0000dim")
	f.Fuzz(func(t *testing.T, limit, cluster, dim string) {
		s := fuzzServerOnce()
		q := url.Values{}
		if limit != "" {
			q.Set("limit", limit)
		}
		q.Set("cluster", cluster)
		q.Set("dim", dim)
		for _, path := range []string{
			"/api/orders.json",
			"/api/auctions.json",
			"/api/history.json",
			"/orders",
		} {
			req := httptest.NewRequest("GET", path+"?"+q.Encode(), nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			switch rec.Code {
			case 200, 400, 404:
			default:
				t.Fatalf("GET %s?%s -> %d:\n%s", path, q.Encode(), rec.Code, rec.Body.String())
			}
		}
	})
}

// FuzzAckPage differentially checks the pre-rendered acknowledgement
// against executing the bidDone page with the request's values, as the
// handler once did: for any prefix, team, order id and limit the bytes
// must be identical.
func FuzzAckPage(f *testing.F) {
	f.Add("", "web-team", 0, 50.0)
	f.Add("/region/eu", "Ünï <b>&'\"+\x00\x01\t\u2028\ufdd0\xff/ops", 1234567, 12.345)
	f.Add("javascript:alert(1)", "+", -1, math.Inf(1))
	f.Add("/a b?c=d&e=\"f\"#g", "\x01id\x01", 7, math.NaN())
	f.Add("\x01team\x01", "team", 1<<40, math.Copysign(0, -1))
	f.Add("/région/€", "", 3, 5e-324)
	f.Fuzz(func(t *testing.T, prefix, team string, id int, limit float64) {
		p, err := newAckPage(pages().bidDone, prefix)
		if err != nil {
			t.Fatalf("prefix %q: %v", prefix, err)
		}
		var want strings.Builder
		if err := pages().bidDone.Execute(&want, struct {
			Prefix string
			ID     int
			Team   string
			Limit  float64
		}{prefix, id, team, limit}); err != nil {
			t.Fatal(err)
		}
		if got := p.appendTo(nil, id, team, limit); string(got) != want.String() {
			t.Fatalf("prefix %q team %q id %d limit %v:\n got %q\nwant %q", prefix, team, id, limit, got, want.String())
		}
	})
}

// FuzzOrdersJSON differentially checks orderView's encoder against
// encoding/json: identical bytes for any strings (invalid UTF-8, the
// JavaScript line separators, HTML metacharacters, control bytes) and
// any floats (−0, the 'e' thresholds, subnormals), and the same error
// for a non-finite value.
func FuzzOrdersJSON(f *testing.F) {
	f.Add(0, "web-team", "web-team/batch-compute", "open", -1, 0.0, 50.0)
	f.Add(7, "<b>&\"\\'", "\xff\xfe\u2028\u2029\x00\x1f\x7f", "won", 3, math.Copysign(0, -1), 1e-7)
	f.Add(-3, "\b\f\n\r\t", "\ufffd\U0001F600", "lost", 1<<40, 1e21, 999999999999999999999.0)
	f.Add(1, "a", "b", "c", 0, 5e-324, 1e-6)
	f.Add(1, "a", "b", "c", 0, 0.000000999999, -1e-7)
	f.Add(1, "a", "b", "c", 0, math.NaN(), 1.0)
	f.Add(1, "a", "b", "c", 0, 1.0, math.Inf(-1))
	f.Fuzz(func(t *testing.T, id int, team, user, status string, auction int, payment, limit float64) {
		v := orderView{ID: id, Team: team, User: user, Status: status, Auction: auction, Payment: payment, Limit: limit}
		want, wantErr := json.Marshal(v)
		got, gotErr := v.appendJSON(nil)
		switch {
		case wantErr != nil || gotErr != nil:
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%+v: error %v, encoding/json says %v", v, gotErr, wantErr)
			}
		case string(got) != string(want):
			t.Fatalf("%+v:\n got %s\nwant %s", v, got, want)
		}
	})
}

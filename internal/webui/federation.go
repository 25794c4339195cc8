package webui

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"clustermarket/internal/federation"
)

// FedServer is the federation's global front end: a planet-wide market
// summary ranking the regions by price, the router's cross-region order
// table, and the gossip price board — with every region's market pages
// mounted for drill-down under /region/<name>/.
type FedServer struct {
	// ops serves /metrics, /healthz and /api/events over every region and
	// the router.
	ops
	fed    *federation.Federation
	mux    *http.ServeMux
	global *template.Template
}

// NewFederated builds the global front end over a federation. The
// federation's firehose feeds /api/events, so attach it first.
func NewFederated(f *federation.Federation) *FedServer {
	funcs := template.FuncMap{
		"pct": func(x float64) float64 { return 100 * x },
	}
	s := &FedServer{
		fed:    f,
		mux:    http.NewServeMux(),
		global: template.Must(template.New("global").Funcs(funcs).Parse(fedSummaryTmpl)),
	}
	s.mux.HandleFunc("/", s.handleGlobal)
	s.mux.HandleFunc("/bid/submit", s.handleGlobalBid)
	s.mux.HandleFunc("/api/federation.json", s.handleFederationJSON)
	s.ops = ops{router: f, fire: f.Telemetry()}
	s.route(s.mux)
	for _, r := range f.Regions() {
		s.markets = append(s.markets, opsMarket{name: r.Name(), ex: r.Exchange()})
		prefix := "/region/" + r.Name()
		s.mux.Handle(prefix+"/", http.StripPrefix(prefix, NewWithPrefix(r.Exchange(), prefix)))
		// Manual settlement must go through the federation so the price
		// board gossips and cross-region legs advance; settling the
		// regional exchange directly would strand routed orders. The
		// longer pattern shadows the mounted regional route.
		name := r.Name()
		s.mux.HandleFunc(prefix+"/auction/run", func(w http.ResponseWriter, rq *http.Request) {
			if rq.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			if _, err := f.SettleRegion(name); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			http.Redirect(w, rq, prefix+"/", http.StatusSeeOther)
		})
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *FedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// fedRegionRow is one region line of the global summary.
type fedRegionRow struct {
	federation.RegionSummary
	// Class marks the region hot/cold by its mean CPU utilization, like
	// the per-cluster rows of the regional summary page.
	Class   string
	MeanCPU float64
}

// fedOrderRow is one router order line.
type fedOrderRow struct {
	ID      int
	Team    string
	Product string
	Qty     float64
	Limit   float64
	Status  string
	Route   string
	Region  string
	Payment float64
}

func (s *FedServer) handleGlobal(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	sums, err := s.fed.Summary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var clusters []string
	for _, reg := range s.fed.Regions() {
		clusters = append(clusters, reg.Clusters()...)
	}
	view := struct {
		Error    string
		Products []string
		Clusters string
		Regions  []fedRegionRow
		Board    []federation.Quote
		Stats    federation.Stats
		Orders   []fedOrderRow
	}{
		Error:    r.URL.Query().Get("err"),
		Products: s.fed.Catalog().Names(),
		Clusters: strings.Join(clusters, ","),
		Board:    s.fed.Board(),
		Stats:    s.fed.Stats(),
	}
	for _, rs := range sums {
		row := fedRegionRow{RegionSummary: rs}
		var util float64
		for _, cs := range rs.Clusters {
			util += cs.Utilization.CPU
		}
		if n := len(rs.Clusters); n > 0 {
			row.MeanCPU = util / float64(n)
		}
		switch {
		case row.MeanCPU >= 0.75:
			row.Class = "hot"
		case row.MeanCPU <= 0.35:
			row.Class = "cold"
		}
		view.Regions = append(view.Regions, row)
	}
	for _, fo := range s.fed.OrdersTail(defaultOrdersLimit) {
		view.Orders = append(view.Orders, fedOrderRow{
			ID: fo.ID, Team: fo.Team, Product: fo.Product,
			Qty: fo.Qty, Limit: fo.Limit,
			Status: fo.Status.String(), Route: routeString(fo),
			Region: fo.Region, Payment: fo.Payment,
		})
	}
	render(w, s.global, view)
}

// handleGlobalBid books one order through the federation router: the
// acceptable clusters may span regions, in which case the order becomes
// cheapest-first cross-region legs (visible in the Routed orders table).
func (s *FedServer) handleGlobalBid(w http.ResponseWriter, r *http.Request) {
	var buf [8]string
	f, clusters, ok := readProductForm(w, r, buf[:0])
	if !ok {
		return
	}
	if _, err := s.fed.SubmitProduct(f.team, f.product, f.qty, clusters, f.limit); err != nil {
		errRedirect(w, r, "/", err.Error())
		return
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// routeString renders an order's legs in attempt order, e.g.
// "hot:lost → cold:won", so the failover trail reads left to right in
// time; cheaper legs come first because that is the routing order.
func routeString(fo *federation.FedOrder) string {
	parts := make([]string, 0, len(fo.Legs))
	for _, l := range fo.Legs {
		st := "queued"
		switch {
		case l.Err != "":
			st = "rejected"
		case l.OrderID >= 0:
			st = l.Status.String()
		}
		parts = append(parts, fmt.Sprintf("%s:%s", l.Region, st))
	}
	return strings.Join(parts, " → ")
}

// fedRegionView is the wire form of one region aggregate.
type fedRegionView struct {
	Region       string  `json:"region"`
	Clusters     int     `json:"clusters"`
	OpenOrders   int     `json:"openOrders"`
	Auctions     int     `json:"auctions"`
	Settled      int     `json:"settled"`
	MeanCPUPrice float64 `json:"meanCPUPrice"`
	Clearing     bool    `json:"clearing"`
	GossipTick   int     `json:"gossipTick"`
}

// handleFederationJSON returns the global state: per-region aggregates
// joined with the price board, plus the router counters.
func (s *FedServer) handleFederationJSON(w http.ResponseWriter, r *http.Request) {
	sums, err := s.fed.Summary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	quotes := make(map[string]federation.Quote)
	for _, q := range s.fed.Board() {
		quotes[q.Region] = q
	}
	out := struct {
		Regions []fedRegionView  `json:"regions"`
		Stats   federation.Stats `json:"stats"`
	}{Stats: s.fed.Stats()}
	for _, rs := range sums {
		q := quotes[rs.Region]
		out.Regions = append(out.Regions, fedRegionView{
			Region:       rs.Region,
			Clusters:     len(rs.Clusters),
			OpenOrders:   rs.OpenOrders,
			Auctions:     rs.Auctions,
			Settled:      rs.Settled,
			MeanCPUPrice: rs.MeanCPUPrice,
			Clearing:     q.Clearing,
			GossipTick:   q.Tick,
		})
	}
	writeJSON(w, out)
}

package webui

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// This file is the ops surface of the web tier: the hand-rolled
// Prometheus exposition at /metrics, the /healthz probe, and the SSE
// live event feed at /api/events. All three exist on the single-
// exchange Server and on the federation front end; a federated
// deployment additionally gets each region's own scrape and feed at
// /region/<name>/metrics etc., because the regional mounts are full
// Servers.

// ---------------------------------------------------------------------
// Metric families.
// ---------------------------------------------------------------------

// families accumulates metric samples across collection passes (one per
// region on the federation scrape) so each family is written once, with
// one header, however many labeled members it has. Families render in
// first-add order, keeping scrapes deterministic and diffable.
type families struct {
	order []string
	fams  map[string]*family
}

type family struct {
	typ, help string
	entries   []telemetry.LabeledValue
	hists     []telemetry.LabeledHistogram
}

func newFamilies() *families { return &families{fams: make(map[string]*family)} }

func (m *families) family(name, typ, help string) *family {
	f, ok := m.fams[name]
	if !ok {
		f = &family{typ: typ, help: help}
		m.fams[name] = f
		m.order = append(m.order, name)
	}
	return f
}

// add appends one sample; labels are alternating key/value pairs.
func (m *families) add(name, typ, help string, labels []string, v float64) {
	f := m.family(name, typ, help)
	f.entries = append(f.entries, telemetry.LabeledValue{Labels: labels, Value: v})
}

// addHist appends one labeled histogram member.
func (m *families) addHist(name, help string, labels []string, snap telemetry.HistogramSnapshot) {
	f := m.family(name, "histogram", help)
	f.hists = append(f.hists, telemetry.LabeledHistogram{Labels: labels, Snap: snap})
}

func (m *families) render() string {
	var e telemetry.Exposition
	for _, name := range m.order {
		f := m.fams[name]
		if f.typ == "histogram" {
			e.HistogramSeries(name, f.help, f.hists)
			continue
		}
		e.LabeledSeries(name, f.typ, f.help, f.entries)
	}
	return e.String()
}

// labels builds a label pair list, dropping pairs whose value is empty
// (the single-exchange scrape has no region dimension).
func labels(pairs ...string) []string {
	var out []string
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i+1] != "" {
			out = append(out, pairs[i], pairs[i+1])
		}
	}
	return out
}

// collectExchange adds one exchange's full metric set. region is the
// label value on every family ("" on the single-exchange scrape).
func collectExchange(m *families, ex *market.Exchange, region string) {
	mt := ex.Metrics()
	m.add("market_orders_submitted_total", "counter", "Orders accepted into the book.", labels("region", region), float64(mt.Submitted))
	m.add("market_orders_rejected_total", "counter", "Order submissions rejected (validation or budget).", labels("region", region), float64(mt.Rejected))
	m.add("market_orders_cancelled_total", "counter", "Open orders withdrawn by their teams.", labels("region", region), float64(mt.Cancelled))
	for _, oc := range []struct {
		outcome string
		v       uint64
	}{{"won", mt.Won}, {"lost", mt.Lost}, {"unsettled", mt.Unsettled}} {
		m.add("market_orders_settled_total", "counter", "Orders reaching a terminal settlement outcome.",
			labels("region", region, "outcome", oc.outcome), float64(oc.v))
	}
	m.add("market_auctions_total", "counter", "Clock auctions run.", labels("region", region), float64(mt.Auctions))
	m.add("market_auctions_converged_total", "counter", "Clock auctions that converged to clearing prices.", labels("region", region), float64(mt.Converged))
	m.add("market_auctions_nonconverged_total", "counter", "Clock auctions that hit the round cap.", labels("region", region), float64(mt.NoConvergence))
	m.add("market_auction_rounds_total", "counter", "Cumulative clock rounds across all auctions.", labels("region", region), float64(mt.Rounds))
	for _, ck := range []struct {
		name, help string
		v          int
	}{
		{"lanes", "Component lanes clocked.", mt.Clock.Lanes},
		{"lanes_held", "Lanes that ran out of rounds; their orders were held open.", mt.Clock.Held},
		{"lane_rounds", "Rounds run, summed over lanes.", mt.Clock.LaneRounds},
		{"bundles_repriced", "Bundles re-priced past round 0 (they touch a moved pool).", mt.Clock.Repriced},
		{"proxies_rechosen", "Proxies re-scored past round 0.", mt.Clock.Rechosen},
		{"choices_switched", "Re-scored proxies that changed bundle.", mt.Clock.Switched},
		{"z_rebuilds", "Rounds that rebuilt excess demand whole.", mt.Clock.Rebuilds},
		{"pool_resums", "Single pools re-summed in the other rounds.", mt.Clock.Resums},
	} {
		m.add("market_clock_"+ck.name+"_total", "counter", ck.help, labels("region", region), float64(ck.v))
	}
	// The book's slope: what a long-running daemon accumulates.
	for _, st := range []struct {
		state string
		n     int
	}{{"live", mt.LiveOrders}, {"archived", mt.ArchivedOrders}} {
		m.add("market_book_orders", "gauge", "Orders in the book: live (open, Go objects) or archived (terminal, pointer-free records).",
			labels("region", region, "state", st.state), float64(st.n))
	}
	m.add("market_book_archive_bytes", "gauge", "Bytes of archive chunks allocated: order records and the byte runs of their rows.",
		labels("region", region), float64(mt.ArchiveBytes))
	m.add("market_ledger_entries", "gauge", "Billing ledger entries.", labels("region", region), float64(mt.LedgerEntries))
	m.add("market_open_orders", "gauge", "Orders currently awaiting settlement.", labels("region", region), float64(ex.OpenOrderCount()))
	for s, n := range ex.OpenOrdersPerStripe() {
		m.add("market_open_orders_stripe", "gauge", "Open orders per book stripe (hot-stripe visibility).",
			labels("region", region, "stripe", strconv.Itoa(s)), float64(n))
	}
	for s, c := range ex.CommitmentsPerStripe() {
		m.add("market_commitments_stripe", "gauge", "Open buy-side budget commitment per account stripe.",
			labels("region", region, "stripe", strconv.Itoa(s)), c)
	}
	// Per-pool price index: clearing prices once an auction has
	// converged, reserve prices before — the same series the paper's
	// Figures 6–7 plot over time.
	prices, _, err := ex.CurrentPrices()
	if err != nil {
		prices = nil
	}
	reg := ex.Registry()
	for i := 0; i < reg.Len() && i < len(prices); i++ {
		m.add("market_pool_price", "gauge", "Current price index per resource pool (clearing when available, else reserve).",
			labels("region", region, "pool", reg.Pool(i).String()), prices[i])
	}
	if j := ex.Journal(); j != nil {
		jm := j.Metrics()
		m.add("market_journal_appends_total", "counter", "Event records appended to the WAL.", labels("region", region), float64(jm.Appends))
		m.add("market_journal_bytes_total", "counter", "Payload bytes appended to the WAL.", labels("region", region), float64(jm.Bytes))
		m.add("market_journal_fsyncs_total", "counter", "WAL fsync batches.", labels("region", region), float64(jm.Fsyncs))
		m.add("market_journal_snapshots_total", "counter", "Snapshots written (WAL rotations).", labels("region", region), float64(jm.Snapshots))
		m.addHist("market_journal_fsync_latency_seconds", "WAL fsync latency.", labels("region", region), jm.FsyncLatency)
	}
	// Degraded-quiesce lifecycle: the gauge flips while the exchange is
	// rejecting new orders on journal failure; the counters and the
	// seconds total survive resume, so dashboards see past episodes.
	ds := ex.DegradedStatus()
	degraded := 0.0
	if ds.Degraded {
		degraded = 1
	}
	m.add("market_degraded", "gauge", "1 while the exchange is quiesced on journal failure, else 0.", labels("region", region), degraded)
	m.add("market_degraded_entered_total", "counter", "Degraded-quiesce episodes entered.", labels("region", region), float64(ds.Entered))
	m.add("market_degraded_exited_total", "counter", "Degraded-quiesce episodes resumed from.", labels("region", region), float64(ds.Exited))
	m.add("market_degraded_seconds_total", "counter", "Cumulative seconds spent in degraded quiesce.", labels("region", region), ds.SecondsTotal)
}

// collectFirehose adds the firehose's own gauges — published volume,
// attached subscribers, total drop count — so the observability
// pipeline observes itself.
func collectFirehose(m *families, fire *telemetry.Firehose) {
	if fire == nil {
		return
	}
	m.add("telemetry_events_published_total", "counter", "Events published to the firehose.", nil, float64(fire.Published()))
	m.add("telemetry_subscribers", "gauge", "Firehose subscribers currently attached.", nil, float64(fire.Subscribers()))
	m.add("telemetry_events_dropped_total", "counter", "Events dropped across all subscribers (drop-oldest).", nil, float64(fire.Dropped()))
}

func writeMetrics(w http.ResponseWriter, m *families) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	fmt.Fprint(w, m.render())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	m := newFamilies()
	collectExchange(m, s.ex, "")
	collectFirehose(m, s.ex.Telemetry())
	writeMetrics(w, m)
}

func (s *FedServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	m := newFamilies()
	for _, reg := range s.fed.Regions() {
		collectExchange(m, reg.Exchange(), reg.Name())
	}
	st := s.fed.Stats()
	m.add("fed_orders_submitted_total", "counter", "Federated orders accepted by the router.", nil, float64(st.Submitted))
	m.add("fed_orders_cross_region_total", "counter", "Federated orders whose clusters spanned regions.", nil, float64(st.CrossRegion))
	m.add("fed_failovers_total", "counter", "Legs submitted after an earlier leg lost.", nil, float64(st.Failovers))
	for _, oc := range []struct {
		outcome string
		v       int
	}{{"won", st.Won}, {"lost", st.Lost}, {"unsettled", st.Unsettled}} {
		m.add("fed_orders_settled_total", "counter", "Federated orders reaching a terminal outcome.",
			labels("outcome", oc.outcome), float64(oc.v))
	}
	m.add("fed_gossip_ticks_total", "counter", "Price-board gossip passes.", nil, float64(s.fed.GossipTick()))
	rs := s.fed.RouterStats()
	m.add("fed_router_routes", "gauge", "Orders in the router's table.", nil, float64(rs.Routes))
	m.add("fed_router_legs", "gauge", "Legs in the router's table.", nil, float64(rs.Legs))
	m.add("fed_router_bytes", "gauge", "Bytes of router table chunks allocated: routes, legs and their cluster indices.", nil, float64(rs.Bytes))
	for _, rr := range rs.Regions {
		m.add("fed_router_open_ids", "gauge", "Ids on the region's open-order list (stale ones until its next advance).",
			labels("region", rr.Region), float64(rr.OpenIDs))
		m.add("fed_router_last_advance_visited", "gauge", "Legs waiting on the region whose outcome its last settlement wave read; a leg the same wave booked there waits for the next.",
			labels("region", rr.Region), float64(rr.Visited))
		m.add("fed_router_last_advance_failovers", "gauge", "Failover legs the region's last settlement wave booked for orders that lost there.",
			labels("region", rr.Region), float64(rr.Failovers))
		m.add("fed_router_last_advance_refused", "gauge", "Failover legs the region refused in the last settlement wave it took part in.",
			labels("region", rr.Region), float64(rr.Refused))
	}
	if j := s.fed.Journal(); j != nil {
		jm := j.Metrics()
		m.add("fed_journal_appends_total", "counter", "Routing events appended to the router WAL.", nil, float64(jm.Appends))
		m.add("fed_journal_fsyncs_total", "counter", "Router WAL fsync batches.", nil, float64(jm.Fsyncs))
		m.addHist("fed_journal_fsync_latency_seconds", "Router WAL fsync latency.", nil, jm.FsyncLatency)
	}
	collectFirehose(m, s.fed.Telemetry())
	writeMetrics(w, m)
}

// ---------------------------------------------------------------------
// /healthz.
// ---------------------------------------------------------------------

// SetHealth attaches the health record behind /healthz. Without one the
// probe reports a bare always-healthy snapshot (nil *Health is valid).
func (s *Server) SetHealth(h *telemetry.Health) { s.health = h }

// SetHealth attaches the health record behind the federation front
// end's /healthz.
func (s *FedServer) SetHealth(h *telemetry.Health) { s.health = h }

// healthView is the /healthz payload: the invariant-probe snapshot plus
// the fault-tolerance overlay — degraded-quiesce state on the exchange
// probe, per-region degradation on the federation probe. Either overlay
// condition (degraded exchange, degraded region) forces Healthy false
// and a 503, so readiness gates drain traffic while the market is
// rejecting or rerouting it.
type healthView struct {
	telemetry.HealthSnapshot
	Degraded        *market.DegradedStatus `json:"degraded,omitempty"`
	DegradedRegions []string               `json:"degraded_regions,omitempty"`
}

// writeHealthz writes the probe payload: 200 when healthy, 503
// otherwise, so a load balancer or readiness gate can act on book
// corruption or degraded quiesce without parsing logs.
func writeHealthz(w http.ResponseWriter, view healthView) {
	w.Header().Set("Content-Type", "application/json")
	if !view.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(view)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	view := healthView{HealthSnapshot: s.health.Snapshot(time.Now())}
	if ds := s.ex.DegradedStatus(); ds.Degraded || ds.Entered > 0 {
		view.Degraded = &ds
		if ds.Degraded {
			view.Healthy = false
		}
	}
	writeHealthz(w, view)
}

func (s *FedServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	view := healthView{HealthSnapshot: s.health.Snapshot(time.Now())}
	for _, reg := range s.fed.Regions() {
		if reg.Exchange().Degraded() {
			view.DegradedRegions = append(view.DegradedRegions, reg.Name())
			view.Healthy = false
		}
	}
	writeHealthz(w, view)
}

// ---------------------------------------------------------------------
// /api/events — the SSE live feed.
// ---------------------------------------------------------------------

// eventEnvelope is the SSE data payload: the firehose event plus the
// connection's running drop count, so a live ops view can show "N
// events lost" the moment it falls behind. Dropped is monotonic per
// connection.
type eventEnvelope struct {
	Seq     uint64 `json:"seq"`
	Source  string `json:"source"`
	Kind    string `json:"kind"`
	Dropped uint64 `json:"dropped"`
	Payload any    `json:"payload,omitempty"`
}

// Subscriber buffer bounds for /api/events: the default absorbs normal
// settlement bursts; the cap keeps one curl from pinning megabytes.
const (
	defaultEventBuf = 256
	maxEventBuf     = 1 << 16
)

// eventParams are the parsed /api/events query parameters.
type eventParams struct {
	kinds   map[string]bool // nil = no filter
	sources map[string]bool // nil = no filter
	max     int             // close the stream after this many events (0 = unbounded)
	buf     int
}

// parseEventParams validates the query. kinds and source are CSV
// filters (empty = everything); max bounds how many events to send
// before closing; buf sizes the subscriber buffer.
func parseEventParams(r *http.Request) (eventParams, error) {
	p := eventParams{buf: defaultEventBuf}
	q := r.URL.Query()
	if csv := splitCSV(nil, q.Get("kinds")); len(csv) > 0 {
		p.kinds = make(map[string]bool, len(csv))
		for _, k := range csv {
			p.kinds[k] = true
		}
	}
	if csv := splitCSV(nil, q.Get("source")); len(csv) > 0 {
		p.sources = make(map[string]bool, len(csv))
		for _, s := range csv {
			p.sources[s] = true
		}
	}
	if raw := q.Get("max"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return p, fmt.Errorf("max must be a positive integer")
		}
		p.max = n
	}
	if raw := q.Get("buf"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return p, fmt.Errorf("buf must be a positive integer")
		}
		if n > maxEventBuf {
			n = maxEventBuf
		}
		p.buf = n
	}
	return p, nil
}

// serveEvents streams the firehose over SSE until the client
// disconnects (or max events have been sent). The subscription's
// bounded buffer is the whole backpressure story: a stalled client
// loses old events (visible in the envelope's dropped counter) and the
// market's hot paths never block on this handler.
func serveEvents(w http.ResponseWriter, r *http.Request, fire *telemetry.Firehose) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if fire == nil {
		http.Error(w, "telemetry not attached", http.StatusNotFound)
		return
	}
	p, err := parseEventParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := fire.Subscribe(p.buf)
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if p.sources != nil && !p.sources[ev.Source] {
				continue
			}
			if p.kinds != nil && !p.kinds[ev.Kind] {
				continue
			}
			env := eventEnvelope{Seq: ev.Seq, Source: ev.Source, Kind: ev.Kind, Dropped: sub.Dropped(), Payload: ev.Payload}
			data, err := json.Marshal(env)
			if err != nil {
				// Payloads are the market's own event types and always
				// marshal; a failure here means a future payload broke the
				// contract — skip the event rather than corrupt the stream.
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
			flusher.Flush()
			sent++
			if p.max > 0 && sent >= p.max {
				return
			}
		}
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	serveEvents(w, r, s.ex.Telemetry())
}

func (s *FedServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	serveEvents(w, r, s.fed.Telemetry())
}

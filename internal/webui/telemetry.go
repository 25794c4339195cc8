package webui

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"clustermarket/internal/federation"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// This file is the process's ops surface: the hand-rolled Prometheus
// exposition at /metrics, the /healthz probe, and the SSE live event
// feed at /api/events. A process serves each once, at its front end's
// root: over the single exchange (New), or over every region and the
// router (NewFederated). A region drill-down under /region/<name>/
// serves market pages only — the process has one firehose and one
// health record, so a regional feed or probe would answer for the whole
// process under one region's name.

// ops is the one ops surface a front end holds.
type ops struct {
	// markets are what the scrape and the probe report: the single
	// exchange unnamed, or each region under its name, which labels its
	// samples.
	markets []opsMarket
	// router is the federation whose routing the scrape reports, or nil.
	router *federation.Federation
	// fire feeds /api/events; nil answers 404.
	fire *telemetry.Firehose
	// health backs /healthz; nil serves a bare always-healthy snapshot.
	health *telemetry.Health
}

// opsMarket is one market of the ops surface.
type opsMarket struct {
	name string
	ex   *market.Exchange
}

// route registers the ops endpoints on a front end's root mux.
func (o *ops) route(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/healthz", o.handleHealthz)
	mux.HandleFunc("/api/events", o.handleEvents)
}

// SetHealth attaches the health record behind /healthz. Without one the
// probe reports a bare always-healthy snapshot (nil *Health is valid).
func (o *ops) SetHealth(h *telemetry.Health) { o.health = h }

// ---------------------------------------------------------------------
// /metrics.
// ---------------------------------------------------------------------

// labels builds a label pair list, dropping pairs whose value is empty
// (an unnamed market has no region dimension).
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
func collectExchange(m *telemetry.Exposition, ex *market.Exchange, region string) {
	mt := ex.Metrics()
	m.Add("market_orders_submitted_total", "counter", "Orders accepted into the book.", labels("region", region), float64(mt.Submitted))
	m.Add("market_orders_rejected_total", "counter", "Order submissions rejected (validation or budget).", labels("region", region), float64(mt.Rejected))
	m.Add("market_orders_cancelled_total", "counter", "Open orders withdrawn by their teams.", labels("region", region), float64(mt.Cancelled))
	for _, oc := range []struct {
		outcome string
		v       uint64
	}{{"won", mt.Won}, {"lost", mt.Lost}, {"unsettled", mt.Unsettled}} {
		m.Add("market_orders_settled_total", "counter", "Orders reaching a terminal settlement outcome.",
			labels("region", region, "outcome", oc.outcome), float64(oc.v))
	}
	m.Add("market_auctions_total", "counter", "Clock auctions run.", labels("region", region), float64(mt.Auctions))
	m.Add("market_auctions_converged_total", "counter", "Clock auctions that converged to clearing prices.", labels("region", region), float64(mt.Converged))
	m.Add("market_auctions_nonconverged_total", "counter", "Clock auctions that hit the round cap.", labels("region", region), float64(mt.NoConvergence))
	m.Add("market_auction_rounds_total", "counter", "Cumulative clock rounds across all auctions.", labels("region", region), float64(mt.Rounds))
	for _, ck := range []struct {
		name, help string
		v          int
	}{
		{"lanes", "Component lanes clocked.", mt.Clock.Lanes},
		{"lanes_held", "Lanes that ran out of rounds; their orders were held open.", mt.Clock.Held},
		{"lane_rounds", "Rounds run, summed over lanes.", mt.Clock.LaneRounds},
		{"bundles_repriced", "Cost slots refreshed past round 0: bundles on a moved pool, but a one-bundle buyer's shared bundle only once priced over its limit.", mt.Clock.Repriced},
		{"bundles_priced", "Dot products past round 0: one per moved shape of identical bundles, one per other moved bundle.", mt.Clock.Priced},
		{"bundles_dropped", "Pure buyers' shared bundles retired as priced over their limit.", mt.Clock.Dropped},
		{"proxies_rechosen", "Proxies re-scored past round 0.", mt.Clock.Rechosen},
		{"choices_switched", "Re-scored proxies that changed bundle.", mt.Clock.Switched},
		{"z_rebuilds", "Rounds that rebuilt excess demand whole.", mt.Clock.Rebuilds},
		{"pool_resums", "Single pools re-summed in the other rounds.", mt.Clock.Resums},
		{"steps_reused", "Rounds that switched no choice and added the last step again.", mt.Clock.Reused},
	} {
		m.Add("market_clock_"+ck.name+"_total", "counter", ck.help, labels("region", region), float64(ck.v))
	}
	// The book's slope: what a long-running daemon accumulates.
	for _, st := range []struct {
		state string
		n     int
	}{{"live", mt.LiveOrders}, {"archived", mt.ArchivedOrders}} {
		m.Add("market_book_orders", "gauge", "Orders in the book: live (open, Go objects) or archived (terminal, pointer-free records).",
			labels("region", region, "state", st.state), float64(st.n))
	}
	m.Add("market_book_archive_bytes", "gauge", "Bytes of archive chunks allocated: order records and the byte runs of their rows.",
		labels("region", region), float64(mt.ArchiveBytes))
	m.Add("market_ledger_entries", "gauge", "Billing ledger entries.", labels("region", region), float64(mt.LedgerEntries))
	m.Add("market_open_orders", "gauge", "Orders currently awaiting settlement.", labels("region", region), float64(ex.OpenOrderCount()))
	for s, n := range ex.OpenOrdersPerStripe() {
		m.Add("market_open_orders_stripe", "gauge", "Open orders per book stripe (hot-stripe visibility).",
			labels("region", region, "stripe", strconv.Itoa(s)), float64(n))
	}
	for s, c := range ex.CommitmentsPerStripe() {
		m.Add("market_commitments_stripe", "gauge", "Open buy-side budget commitment per account stripe.",
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
		m.Add("market_pool_price", "gauge", "Current price index per resource pool (clearing when available, else reserve).",
			labels("region", region, "pool", reg.Pool(i).String()), prices[i])
	}
	if j := ex.Journal(); j != nil {
		jm := j.Metrics()
		m.Add("market_journal_appends_total", "counter", "Event records appended to the WAL.", labels("region", region), float64(jm.Appends))
		m.Add("market_journal_bytes_total", "counter", "Payload bytes appended to the WAL.", labels("region", region), float64(jm.Bytes))
		m.Add("market_journal_fsyncs_total", "counter", "WAL fsync batches.", labels("region", region), float64(jm.Fsyncs))
		m.Add("market_journal_snapshots_total", "counter", "Snapshots written (WAL rotations).", labels("region", region), float64(jm.Snapshots))
		m.AddHistogram("market_journal_fsync_latency_seconds", "WAL fsync latency.", labels("region", region), jm.FsyncLatency)
		m.Add("market_journal_failing", "gauge", "1 while the WAL's last write failed past its heal loop, else 0.", labels("region", region), gauge(jm.Failing))
		m.Add("market_journal_failures_total", "counter", "WAL writes and snapshots that failed past the heal loop.", labels("region", region), float64(jm.Failures))
	}
}

// gauge is a boolean's 0/1 sample value.
func gauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// collectFirehose adds the firehose's own gauges — published volume,
// attached subscribers, total drop count — so the observability
// pipeline observes itself.
func collectFirehose(m *telemetry.Exposition, fire *telemetry.Firehose) {
	if fire == nil {
		return
	}
	m.Add("telemetry_events_published_total", "counter", "Events published to the firehose.", nil, float64(fire.Published()))
	m.Add("telemetry_subscribers", "gauge", "Firehose subscribers currently attached.", nil, float64(fire.Subscribers()))
	m.Add("telemetry_events_dropped_total", "counter", "Events dropped across all subscribers (drop-oldest).", nil, float64(fire.Dropped()))
}

func (o *ops) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	var m telemetry.Exposition
	for _, mk := range o.markets {
		collectExchange(&m, mk.ex, mk.name)
	}
	if o.router != nil {
		collectRouter(&m, o.router)
	}
	collectFirehose(&m, o.fire)
	w.Header().Set("Content-Type", telemetry.ContentType)
	io.WriteString(w, m.String())
}

// collectRouter adds the federation router's own families: its order
// counters, its table's size and each region's last settlement wave.
func collectRouter(m *telemetry.Exposition, fed *federation.Federation) {
	st := fed.Stats()
	m.Add("fed_orders_submitted_total", "counter", "Federated orders accepted by the router.", nil, float64(st.Submitted))
	m.Add("fed_orders_cross_region_total", "counter", "Federated orders whose clusters spanned regions.", nil, float64(st.CrossRegion))
	m.Add("fed_failovers_total", "counter", "Legs submitted after an earlier leg lost.", nil, float64(st.Failovers))
	for _, oc := range []struct {
		outcome string
		v       int
	}{{"won", st.Won}, {"lost", st.Lost}, {"unsettled", st.Unsettled}} {
		m.Add("fed_orders_settled_total", "counter", "Federated orders reaching a terminal outcome.",
			labels("outcome", oc.outcome), float64(oc.v))
	}
	m.Add("fed_gossip_ticks_total", "counter", "Price-board gossip passes.", nil, float64(fed.GossipTick()))
	rs := fed.RouterStats()
	m.Add("fed_router_routes", "gauge", "Orders in the router's table.", nil, float64(rs.Routes))
	m.Add("fed_router_legs", "gauge", "Legs in the router's table.", nil, float64(rs.Legs))
	m.Add("fed_router_bytes", "gauge", "Bytes of router table chunks allocated: routes, legs and their cluster indices.", nil, float64(rs.Bytes))
	for _, rr := range rs.Regions {
		m.Add("fed_router_open_ids", "gauge", "Ids on the region's open-order list (stale ones until its next advance).",
			labels("region", rr.Region), float64(rr.OpenIDs))
		m.Add("fed_router_last_advance_visited", "gauge", "Legs waiting on the region whose outcome its last settlement wave read; a leg the same wave booked there waits for the next.",
			labels("region", rr.Region), float64(rr.Visited))
		m.Add("fed_router_last_advance_failovers", "gauge", "Failover legs the region's last settlement wave booked for orders that lost there.",
			labels("region", rr.Region), float64(rr.Failovers))
		m.Add("fed_router_last_advance_refused", "gauge", "Failover legs the region refused in the last settlement wave it took part in.",
			labels("region", rr.Region), float64(rr.Refused))
	}
	if j := fed.Journal(); j != nil {
		jm := j.Metrics()
		m.Add("fed_journal_appends_total", "counter", "Routing events appended to the router WAL.", nil, float64(jm.Appends))
		m.Add("fed_journal_fsyncs_total", "counter", "Router WAL fsync batches.", nil, float64(jm.Fsyncs))
		m.AddHistogram("fed_journal_fsync_latency_seconds", "Router WAL fsync latency.", nil, jm.FsyncLatency)
		m.Add("fed_journal_failing", "gauge", "1 while the router WAL's last write failed past its heal loop, else 0.", nil, gauge(jm.Failing))
		m.Add("fed_journal_failures_total", "counter", "Router WAL writes and snapshots that failed past the heal loop.", nil, float64(jm.Failures))
	}
}

// ---------------------------------------------------------------------
// /healthz.
// ---------------------------------------------------------------------

// healthView is the /healthz payload: the invariant-probe snapshot plus
// the journals that are failing, by name: a region's by its name, the
// single exchange's as "market", the router's as "fed". A failing
// journal forces Healthy false and a 503, so readiness gates drain
// traffic while its market refuses every write.
type healthView struct {
	telemetry.HealthSnapshot
	FailingJournals []string `json:"failing_journals,omitempty"`
}

// handleHealthz reports the health record with every journal the
// process holds laid over it. It answers 200 when healthy and 503
// otherwise, so a load balancer or readiness gate can act on book
// corruption or a dead disk without parsing logs. A journal is failing
// from a write that outlasts its heal loop until its next write
// succeeds, so the probe is healthy again once the disk is.
func (o *ops) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	view := healthView{HealthSnapshot: o.health.Snapshot(time.Now())}
	failing := func(name string, j *journal.Journal) {
		if j != nil && j.Failing() {
			view.FailingJournals = append(view.FailingJournals, name)
			view.Healthy = false
		}
	}
	for _, mk := range o.markets {
		name := mk.name
		if name == "" {
			name = "market"
		}
		failing(name, mk.ex.Journal())
	}
	if o.router != nil {
		failing(federation.RouterDir, o.router.Journal())
	}
	w.Header().Set("Content-Type", "application/json")
	if !view.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(view)
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

// handleEvents streams the firehose over SSE until the client
// disconnects (or max events have been sent). The subscription's
// bounded buffer is the whole backpressure story: a stalled client
// loses old events (visible in the envelope's dropped counter) and the
// market's hot paths never block on this handler.
func (o *ops) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	if o.fire == nil {
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
	sub := o.fire.Subscribe(p.buf)
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

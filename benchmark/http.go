package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

// Stated settings of http-mixed, at scale 1.
const (
	httpEpoch      = 200 * time.Millisecond // wall-clock epoch ticker, concurrent with traffic
	httpClosedReqs = 60000                  // phase A, closed loop
	httpOpenFor    = 2 * time.Second        // phase B, per rate
	httpWindow     = 500 * time.Millisecond // phase A throughput window
	latencyLimit   = 50 * time.Millisecond  // on submit p99, from the instant a request was due
)

var httpRates = []int{4000, 8000, 16000}

type reqKind uint8

const (
	reqSubmit reqKind = iota // POST /bid/submit
	reqPrices                // GET /api/prices.json: preliminary prices, the Section V.A feedback
	reqOrders                // GET /api/orders.json?limit=50
)

// request is one generated HTTP request: its kind and, for a submit, the
// form body.
type request struct {
	kind reqKind
	body string
}

// httpRequests draws n requests from rng: 80% submits of planet traffic,
// 10% price reads, 10% order-table reads.
func httpRequests(rng *rand.Rand, n int) []request {
	orders := make([]order, n)
	planetOrders(rng, orders)
	out := make([]request, n)
	for i := range out {
		switch p := rng.Intn(10); {
		case p < 8:
			o := orders[i]
			out[i] = request{kind: reqSubmit, body: "team=" + o.team + "&product=" + planetProduct + "&qty=1&clusters=" +
				strings.Join(o.clusters, ",") + "&limit=" + strconv.Itoa(int(o.limit))}
		case p == 8:
			out[i].kind = reqPrices
		default:
			out[i].kind = reqOrders
		}
	}
	return out
}

// client is one keep-alive connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		// A rejected bid answers 303 to the error page: that is a failure
		// here, not something to follow.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
}

func (c *client) do(r *request) error {
	var resp *http.Response
	var err error
	switch r.kind {
	case reqSubmit:
		resp, err = c.hc.Post(c.base+"/bid/submit", "application/x-www-form-urlencoded", strings.NewReader(r.body))
	case reqPrices:
		resp, err = c.hc.Get(c.base + "/api/prices.json")
	default:
		resp, err = c.hc.Get(c.base + "/api/orders.json?limit=50")
	}
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// timedHandler is the traced pass's view of the webui layer from outside:
// it times every call into the wrapped handler.
type timedHandler struct {
	next   http.Handler
	leaves *spanBuf

	mu            sync.Mutex
	submit, reads []time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t)
	h.leaves.add("webui.handler", t, openPhase, false)
	h.mu.Lock()
	if r.Method == http.MethodPost {
		h.submit = append(h.submit, d)
	} else {
		h.reads = append(h.reads, d)
	}
	h.mu.Unlock()
}

// schedule returns the due times of an open loop at the given rate over
// dur, as offsets from the loop's start: Poisson arrivals drawn from the
// seed and from nothing else.
func schedule(seed int64, rate int, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / float64(rate)
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// sent is one open-loop request as it went.
type sent struct {
	late    time.Duration // due → handed to a connection
	latency time.Duration // due → reply read
	done    time.Duration // offset of the reply from the loop's start
	err     error
}

// openLoop sends request i at due[i] over at most workers connections.
// Due times never move: when every connection is busy a request leaves
// late, and its latency still counts from the instant it was due, so a
// stall shows as lateness and latency, never as a wider gap between
// arrivals.
func openLoop(due []time.Duration, workers int, send func(worker, i int) error) []sent {
	out := make([]sent, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := due[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				left := time.Since(start)
				err := send(w, i)
				done := time.Since(start)
				out[i] = sent{late: left - due[i], latency: done - due[i], done: done, err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// reply is one acknowledged closed-loop request.
type reply struct {
	kind    reqKind
	latency time.Duration
	done    time.Duration // offset of the reply from the phase's start
}

type httpWorld struct {
	ex      *market.Exchange
	handler *timedHandler // nil when untraced
	base    string
	srv     *http.Server
	served  chan error

	closing  sync.Once
	closeErr error
}

// close drains and stops the server and waits for its goroutine; calling
// it again returns the first result.
func (w *httpWorld) close() error {
	w.closing.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if w.closeErr = w.srv.Shutdown(ctx); w.closeErr != nil {
			return
		}
		if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
			w.closeErr = err
		}
	})
	return w.closeErr
}

// startTicker runs the epoch ticker, concurrent with the traffic as in
// marketd, until the returned function is called; that returns the
// non-idle ticks' durations and the first tick error, and may be called
// again.
func startTicker(loop *market.Loop, rec *recorder) (stop func() ([]time.Duration, error)) {
	var ticks []time.Duration
	var tickErr error
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(httpEpoch)
		defer tk.Stop()
		for e := 0; ; e++ {
			select {
			case <-quit:
				return
			case <-tk.C:
			}
			t := time.Now()
			id := rec.begin("market.run_auction", -1, e)
			ar, err := loop.Tick()
			rec.end(id)
			if err != nil && !errors.Is(err, core.ErrNoConvergence) && tickErr == nil {
				tickErr = err
			}
			if ar != nil {
				ticks = append(ticks, time.Since(t))
			}
		}
	}()
	var once sync.Once
	return func() ([]time.Duration, error) {
		once.Do(func() { close(quit) })
		<-done
		return ticks, tickErr
	}
}

func httpMixedRep(c runCfg, rec *recorder) (*repResult, error) {
	fire := telemetry.NewFirehose()
	w, cleanup, setup, err := setups(setupBuilds, func() (*httpWorld, func(), error) {
		ex, err := planetExchange(market.Config{InitialBudget: planetBudget, Telemetry: fire})
		if err != nil {
			return nil, nil, err
		}
		w := &httpWorld{ex: ex, served: make(chan error, 1)}
		var h http.Handler = webui.New(ex)
		if rec != nil {
			w.handler = &timedHandler{next: h}
			h = w.handler
		}
		// The wiring of cmd/marketd's serveListener.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		w.base = "http://" + ln.Addr().String()
		w.srv = &http.Server{Handler: h}
		go func() { w.served <- w.srv.Serve(ln) }()
		return w, func() { w.close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if w.handler != nil {
		w.handler.leaves = rec.buffer()
	}
	stopDrain := drain(fire, rec)
	defer stopDrain()

	loop, err := market.NewLoop(w.ex, httpEpoch)
	if err != nil {
		return nil, err
	}
	stopTicks := startTicker(loop, rec)
	defer stopTicks()

	clients := make([]*client, c.workers)
	for i := range clients {
		clients[i] = newClient(w.base)
	}
	r := newRep()
	rng := rand.New(rand.NewSource(c.seed))

	// Phase A: closed loop, one request in flight per connection.
	reqs := httpRequests(rng, c.sized(httpClosedReqs))
	replies := make([][]reply, c.workers)
	failed := make([]int, c.workers)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				t := time.Now()
				if err := clients[i].do(&reqs[k]); err != nil {
					failed[i]++
					continue
				}
				replies[i] = append(replies[i], reply{reqs[k].kind, time.Since(t), time.Since(t0)})
			}
		}(i)
	}
	wg.Wait()
	wallA := time.Since(t0)

	var submitLat []float64
	window := max(time.Duration(float64(httpWindow)*min(c.scale, 1)), 10*time.Millisecond)
	windows := make([]float64, int(wallA/window)) // whole windows only
	submits := 0
	for i := range replies {
		r.failed += failed[i]
		for _, rp := range replies[i] {
			if rp.kind != reqSubmit {
				continue
			}
			submits++
			submitLat = append(submitLat, float64(rp.latency)/float64(time.Microsecond))
			if k := int(rp.done / window); k < len(windows) {
				windows[k]++
			}
		}
	}
	r.attempted = len(reqs)
	if len(windows) == 0 || len(submitLat) == 0 {
		return nil, fmt.Errorf("phase A too short to measure: %v, %d submits acknowledged", wallA, len(submitLat))
	}
	for i := range windows {
		windows[i] /= window.Seconds()
	}
	r.wall = wallA.Seconds()
	r.e2e["setup_s"] = setup.Seconds()
	r.e2e["orders_per_s"] = median(windows)
	r.n["orders_per_s"] = len(windows)
	r.e2e["submit_p50_us"] = quantile(submitLat, 0.5)
	r.n["submit_p50_us"] = len(submitLat)
	r.cycle = r.e2e["submit_p50_us"] / 1e6
	if supported(len(submitLat), 0.99) {
		r.layer["webui.closed.submit_p99_us"] = quantile(submitLat, 0.99)
		r.n["webui.closed.submit_p99_us"] = len(submitLat)
	}
	r.layer["runtime.whole_run_orders_per_s"] = float64(submits) / wallA.Seconds()
	r.shape["submit_share"] = submitShare(reqs)
	if w.handler != nil {
		w.handler.mu.Lock()
		hs, hr := durs(w.handler.submit, time.Microsecond), durs(w.handler.reads, time.Microsecond)
		r.layer["webui.handler.calls"] = float64(len(hs) + len(hr))
		r.layer["webui.handler.busy_s"] = (sumDur(w.handler.submit) + sumDur(w.handler.reads)).Seconds()
		w.handler.mu.Unlock()
		r.layer["webui.handler.submit_p50_us"] = quantile(hs, 0.5)
		r.layer["webui.handler.read_p50_us"] = quantile(hr, 0.5)
		// What is left of a submit once the handler is taken out:
		// net/http, the loopback and the generator itself.
		r.layer["webui.stack.submit_p50_us"] = r.e2e["submit_p50_us"] - r.layer["webui.handler.submit_p50_us"]
	}
	reqs, replies = nil, nil

	// Phase B: open loop at each fixed rate.
	r.e2e["max_rate_ok_per_s"] = 0
	dur := time.Duration(float64(httpOpenFor) * c.scale)
	for _, rate := range httpRates {
		due := schedule(c.seed+int64(rate), rate, dur)
		reqs := httpRequests(rng, len(due))
		out := openLoop(due, c.workers, func(worker, i int) error { return clients[worker].do(&reqs[i]) })
		ol := openLoopMetrics(out, reqs, rate)
		r.attempted += len(out)
		r.failed += ol.failed
		p := "webui.open.r" + strconv.Itoa(rate)
		r.layer[p+".submit_p50_us"] = ol.submitP50
		if supported(ol.submits, 0.99) {
			r.layer[p+".submit_p99_us"] = ol.submitP99
			r.n[p+".submit_p99_us"] = ol.submits
		}
		if supported(ol.reads, 0.99) {
			r.layer[p+".read_p99_us"] = ol.readP99
			r.n[p+".read_p99_us"] = ol.reads
		}
		r.layer[p+".achieved_per_s"] = ol.achieved
		r.layer[p+".gen_late_p50_us"] = ol.lateP50
		r.layer[p+".gen_late_max_ms"] = ol.lateMax
		if ol.met {
			r.layer[p+".met_limit"] = 1
			r.e2e["max_rate_ok_per_s"] = float64(rate)
		} else {
			r.layer[p+".met_limit"] = 0
		}
	}

	ticks, tickErr := stopTicks()
	for _, cl := range clients {
		cl.hc.CloseIdleConnections()
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if tickErr != nil {
		return nil, fmt.Errorf("epoch tick: %w", tickErr)
	}
	// Settle what the last epoch left in the book.
	for i := 0; w.ex.OpenOrderCount() > 0; i++ {
		if i >= 100 {
			return nil, errors.New("book did not drain")
		}
		t := time.Now()
		if _, err := loop.Tick(); err != nil && !errors.Is(err, core.ErrNoConvergence) {
			return nil, err
		}
		ticks = append(ticks, time.Since(t))
	}
	dropped := stopDrain()

	tickMs := durs(ticks, time.Millisecond)
	r.e2e["epoch_p50_ms"] = median(tickMs)
	r.n["epoch_p50_ms"] = len(tickMs)
	r.layer["market.run_auction.calls"] = float64(len(tickMs))
	r.layer["market.run_auction.busy_s"] = sumDur(ticks).Seconds()
	r.layer["market.run_auction.p50_ms"] = median(tickMs)
	r.e2e["fail_share"] = float64(r.failed) / float64(r.attempted)
	m := w.ex.Metrics()
	r.layer["market.noconv_epochs"] = float64(m.NoConvergence)
	if m.Auctions > 0 {
		r.layer["core.rounds_per_epoch"] = float64(m.Rounds) / float64(m.Auctions)
	}
	telemetryMetrics(r, fire, dropped)
	if rec != nil {
		r.spans = rec.all()
	}
	err = exchangeMetrics(r, w.ex)
	runtime.KeepAlive(w)
	return r, err
}

// submitShare is the share of submits in the generated mix.
func submitShare(reqs []request) float64 {
	n := 0
	for i := range reqs {
		if reqs[i].kind == reqSubmit {
			n++
		}
	}
	return float64(n) / float64(len(reqs))
}

type openLoopResult struct {
	submitP50, submitP99, readP99 float64 // µs, from the due time
	achieved                      float64 // replies per second
	lateP50, lateMax              float64 // µs, ms
	submits, reads, failed        int
	met                           bool
}

// openLoopMetrics judges one rate. The rate meets the limit when submit
// p99 from the due time is within latencyLimit, the achieved rate is at
// least 0.95 of the offered one, and the last request left no more than
// latencyLimit late, which it would not if a backlog were growing. A
// failed request counts as missing the latency limit.
func openLoopMetrics(out []sent, reqs []request, rate int) openLoopResult {
	var res openLoopResult
	var submit, read, late []float64
	var last time.Duration
	for i, s := range out {
		lat := float64(s.latency) / float64(time.Microsecond)
		if s.err != nil {
			res.failed++
			lat = float64(time.Hour) // beyond any limit
		}
		if reqs[i].kind == reqSubmit {
			submit = append(submit, lat)
		} else {
			read = append(read, lat)
		}
		late = append(late, float64(s.late)/float64(time.Microsecond))
		last = max(last, s.done)
	}
	if len(out) == 0 {
		return res
	}
	res.submits, res.reads = len(submit), len(read)
	res.submitP50 = quantile(submit, 0.5)
	res.submitP99 = quantile(submit, 0.99)
	res.readP99 = quantile(read, 0.99)
	res.achieved = float64(len(out)-res.failed) / last.Seconds()
	res.lateMax = quantile(append([]float64(nil), late...), 1) / 1e3
	lastLate := late[len(late)-1]
	res.lateP50 = quantile(late, 0.5)
	limitUs := float64(latencyLimit) / float64(time.Microsecond)
	res.met = res.failed == 0 && res.submitP99 <= limitUs && res.achieved >= 0.95*float64(rate) && lastLate <= limitUs
	return res
}

// Command marketd serves the trading-platform web UI (Figures 3–5) over a
// demo world: a fleet of clusters with skewed utilization and a set of
// team accounts ready to bid.
//
//	marketd -addr :8080 -clusters 8 -seed 42 -epoch 30s
//
// Then browse http://localhost:8080/ for the market summary and /bid to
// enter bids. With -epoch set, accumulated orders settle automatically
// in one clock auction per epoch; POST /auction/run forces a settlement
// at any time (and is the only way to settle when -epoch is 0).
//
// With -regions N (N ≥ 2), marketd builds a federated world instead: N
// regional markets, each with its own fleet, settled together once an
// epoch and fronted by the global market view at / with per-region
// drill-downs under /region/<name>/. The first region runs hot so
// cross-region bids visibly route toward the cheaper regions.
//
// With -journal-dir set, every settlement-relevant state change is
// journaled to a durable WAL, and fsynced, before it takes effect.
// Restarting marketd against the same directory — with the same world
// flags (-clusters, -machines, -seed, -budget, -regions) — recovers the
// books exactly where the previous process left them, verifying the
// shared invariant kernel before serving. A federated directory recovers
// whole or not at all: one whose journals do not match -regions is
// refused. A directory already held by a live process is refused at
// startup (the journal's lockfile), so two marketds cannot interleave
// writes to one WAL. So is a directory written in the other mode: a
// single exchange's root wal under -regions ≥ 2, or a federation's fed/
// under -regions 0. Every journal's recovery notes (an ignored snapshot,
// a torn tail cut back) are logged.
//
// With -pprof ADDR, marketd also serves the Go runtime's profiles
// (net/http/pprof: /debug/pprof/, CPU and heap profiles, goroutine dumps)
// on a listener of their own at ADDR, which must be a loopback address:
// a profile exposes the process's memory and code.
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// marketd shuts down cleanly on SIGINT/SIGTERM: the epoch loop is
// cancelled, the HTTP server drains in-flight requests, and the journal
// is flushed, fsynced, and unlocked before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

// shutdownTimeout bounds how long in-flight HTTP requests may drain
// after a termination signal.
const shutdownTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	clusters := flag.Int("clusters", 8, "number of clusters (per region with -regions)")
	machines := flag.Int("machines", 20, "machines per cluster")
	seed := flag.Int64("seed", 42, "random seed for the demo load")
	budget := flag.Float64("budget", 10000, "initial budget per team")
	epoch := flag.Duration("epoch", 30*time.Second,
		"auction epoch: settle accumulated orders every interval (0 disables the loop)")
	regions := flag.Int("regions", 0,
		"number of federated regions (0 = single exchange, ≥2 = federated market)")
	journalDir := flag.String("journal-dir", "",
		"durable journal directory: state changes hit the WAL before taking effect, and a restart recovers the books (world flags must match the previous run)")
	lockWait := flag.Duration("lock-wait", 0,
		"how long to retry opening a journal directory locked by another live process (0 fails immediately); covers the restart race where the previous marketd is still draining")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this loopback address, e.g. 127.0.0.1:6060 (empty disables it)")
	flag.Parse()

	err := validateFlags(*clusters, *machines, *regions, *budget, *epoch, *lockWait)
	if err == nil && *pprofAddr != "" {
		err = checkLoopback(*pprofAddr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "marketd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal("marketd: pprof: ", err)
		}
		go func() {
			if err := serveListener(ctx, ln, pprofHandler()); err != nil {
				log.Printf("marketd: pprof: %v", err)
			}
		}()
		log.Printf("marketd: serving pprof on %s", ln.Addr())
	}

	// Every exchange and the federation router publish to one firehose,
	// so /metrics and the /api/events live feed see the whole process.
	fire := telemetry.NewFirehose()
	health := telemetry.NewHealth(time.Now())
	health.SetJournal(*journalDir)

	var handler http.Handler
	// markets are what the health loop checks.
	var markets []checkedMarket
	// closeJournal flushes, fsyncs, and unlocks the journal(s) after the
	// HTTP server has drained — the durability half of graceful shutdown.
	closeJournal := func() error { return nil }
	if *regions > 0 {
		fed, closer, err := buildFederatedDemo(*regions, *clusters, *machines, *seed, *budget, *journalDir, *lockWait, fire)
		if err != nil {
			log.Fatal("marketd: ", err)
		}
		closeJournal = closer
		if *epoch > 0 {
			go fed.Serve(ctx, *epoch)
			log.Printf("marketd: federation ticking every %s, its %d regions settling concurrently", *epoch, *regions)
		} else {
			log.Printf("marketd: epoch loop disabled; settle per region via POST /region/<name>/auction/run")
		}
		for _, r := range fed.Regions() {
			markets = append(markets, checkedMarket{r.Name(), r.Exchange()})
		}
		s := webui.NewFederated(fed)
		s.SetHealth(health)
		handler = s
		log.Printf("marketd: serving federated market (%d regions) on %s", *regions, *addr)
	} else {
		ex, closer, err := buildDemo(*clusters, *machines, *seed, *budget, *journalDir, *lockWait, fire)
		if err != nil {
			log.Fatal("marketd: ", err)
		}
		closeJournal = closer
		markets = []checkedMarket{{"", ex}}
		if *epoch > 0 {
			loop, err := market.NewLoop(ex, *epoch)
			if err != nil {
				log.Fatal("marketd: ", err)
			}
			loop.OnTick = func(rec *market.AuctionRecord, err error) {
				if err != nil {
					log.Printf("marketd: epoch auction: %v", err)
					return
				}
				log.Printf("marketd: auction %d settled %d/%d orders in %d rounds",
					rec.Number, rec.Settled, rec.Submitted, rec.Rounds)
			}
			go loop.Run(ctx)
			log.Printf("marketd: epoch auction loop settling every %s", *epoch)
		} else {
			log.Printf("marketd: epoch loop disabled; settle via POST /auction/run")
		}
		s := webui.New(ex)
		s.SetHealth(health)
		handler = s
		log.Printf("marketd: serving trading platform on %s", *addr)
	}
	// The invariant checks run on their own clock, once an epoch, in
	// both modes: the first before serving, so /healthz answers from it.
	recordLiveCheck(health, markets...)
	go healthLoop(ctx, health, *epoch, markets...)

	if err := serve(ctx, *addr, handler); err != nil {
		closeJournal()
		log.Fatal("marketd: ", err)
	}
	if err := closeJournal(); err != nil {
		log.Fatal("marketd: closing journal: ", err)
	}
	log.Printf("marketd: shut down cleanly")
}

// serve listens on addr and runs serveListener.
func serve(ctx context.Context, addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(ctx, ln, handler)
}

// A client must send a request's headers within readHeaderTimeout of
// opening it, and a kept-alive connection with no request closes after
// idleTimeout: a half-sent request holds a goroutine and a descriptor
// no longer. There is no write timeout: /api/events streams for as long
// as its subscriber reads.
const (
	readHeaderTimeout = 3 * time.Second
	idleTimeout       = 10 * time.Second
)

// serveListener runs an HTTP server on ln until ctx is cancelled
// (SIGINT/SIGTERM), then drains in-flight requests for up to
// shutdownTimeout. A nil return means a clean shutdown.
func serveListener(ctx context.Context, ln net.Listener, handler http.Handler) error {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serving failed before any signal.
		return err
	case <-ctx.Done():
	}
	log.Printf("marketd: signal received, draining (max %s)", shutdownTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// checkLoopback refuses a -pprof address whose host is not a loopback
// IP or "localhost": an empty host listens on every interface.
func checkLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		return fmt.Errorf("-pprof must be a loopback address such as 127.0.0.1:6060, got %q", addr)
	}
	return nil
}

// pprofHandler serves the runtime profiles under /debug/pprof/.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthCheckInterval is the /healthz invariant-check cadence when the
// epoch loop is disabled.
const healthCheckInterval = 30 * time.Second

// A checkedMarket is one exchange the health loop checks, and the
// region it serves: "" for the single-exchange demo.
type checkedMarket struct {
	region string
	ex     *market.Exchange
}

// recordLiveCheck runs invariant.CheckLive, the kernel's checks that
// hold while settlements are in flight, over every market and records
// the outcome for /healthz, each violation prefixed with its region.
func recordLiveCheck(health *telemetry.Health, markets ...checkedMarket) {
	var out []string
	for _, m := range markets {
		for _, v := range invariant.CheckLive(m.ex) {
			line := v.String()
			if m.region != "" {
				line = "region " + m.region + ": " + line
			}
			out = append(out, line)
		}
	}
	health.RecordCheck(time.Now(), out)
}

// healthLoop re-runs the live-safe invariant checks on a timer until
// ctx is cancelled, feeding /healthz. every <= 0 selects the default
// cadence.
func healthLoop(ctx context.Context, health *telemetry.Health, every time.Duration, markets ...checkedMarket) {
	if every <= 0 {
		every = healthCheckInterval
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			recordLiveCheck(health, markets...)
		}
	}
}

// validateFlags rejects demo-world parameters that would panic or build
// a silently broken market.
func validateFlags(clusters, machines, regions int, budget float64, epoch, lockWait time.Duration) error {
	if clusters < 1 {
		return fmt.Errorf("-clusters must be at least 1, got %d", clusters)
	}
	if machines < 1 {
		return fmt.Errorf("-machines must be at least 1, got %d", machines)
	}
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return fmt.Errorf("-budget must be positive and finite, got %g", budget)
	}
	if epoch < 0 {
		return fmt.Errorf("-epoch must not be negative, got %s", epoch)
	}
	if regions < 0 {
		return fmt.Errorf("-regions must not be negative, got %d", regions)
	}
	if regions == 1 {
		return errors.New("-regions needs at least 2 regions to federate (use 0 for a single exchange)")
	}
	if lockWait < 0 {
		return fmt.Errorf("-lock-wait must not be negative, got %s", lockWait)
	}
	return nil
}

// Lock-retry backoff for -lock-wait: starts small so a normal restart
// race (the old process draining for under a second) resolves quickly,
// doubles to a cap so a long wait doesn't spin.
const (
	lockRetryBase = 50 * time.Millisecond
	lockRetryCap  = time.Second
)

// openJournal runs open, which opens the journal(s) under dir, retrying
// for up to wait while another live process holds a directory flock —
// the restart-under-supervisor race where the previous marketd is still
// draining its journal. Any other error, or wait 0, fails immediately.
func openJournal(dir string, wait time.Duration, open func() error) error {
	deadline := time.Now().Add(wait)
	backoff := lockRetryBase
	for {
		err := open()
		if !errors.Is(err, journal.ErrLocked) || wait <= 0 || time.Now().After(deadline) {
			return err
		}
		log.Printf("marketd: journal %s held by another process; retrying in %s", dir, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > lockRetryCap {
			backoff = lockRetryCap
		}
	}
}

// regionNames is the palette of demo region names; beyond it, regions
// are named g<i>.
var regionNames = []string{"us", "eu", "asia", "sam", "africa", "oceania", "india", "japan"}

func regionName(i int) string {
	if i < len(regionNames) {
		return regionNames[i]
	}
	return fmt.Sprintf("g%d", i+1)
}

// demoTeams are the funded accounts of the demo world.
var demoTeams = []string{"search", "ads", "maps", "mail", "storage"}

// buildRegionFleet assembles one region's clusters with the demo's
// hot/cold contrast: hot regions run mostly congested, others mostly
// idle with the occasional warm cluster.
func buildRegionFleet(rng *rand.Rand, prefix string, clusters, machines int, hot bool) (*cluster.Fleet, error) {
	fleet := cluster.NewFleet()
	for i := 1; i <= clusters; i++ {
		name := fmt.Sprintf("%sr%d", prefix, i)
		c := cluster.New(name, nil)
		c.AddMachines(machines, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			return nil, err
		}
		// A hot region's first cluster always runs congested so the market
		// summary shows price contrast; a third of the rest join it. Cold
		// regions get the occasional warm cluster.
		var target cluster.Usage
		congested := hot && (i == 1 || rng.Float64() < 0.33)
		if !hot && i > 1 && rng.Float64() < 0.2 {
			congested = true
		}
		if congested {
			target = cluster.Usage{CPU: 0.85, RAM: 0.8, Disk: 0.8}
		} else {
			target = cluster.Usage{CPU: 0.25, RAM: 0.3, Disk: 0.2}
		}
		if err := fleet.FillToUtilization(rng, name, target); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// noClose is the journal-less closer: nothing to flush.
func noClose() error { return nil }

// buildDemo assembles the single-exchange demo world. With journalDir
// set, the exchange journals every state change; if the directory holds
// a previous run's journal, the books are recovered from it instead of
// starting fresh (the world flags must match that run, since the fleet
// is rebuilt deterministically from the seed, not journaled). Recovery
// runs the shared invariant kernel before serving. The returned closer
// flushes and unlocks the journal on shutdown.
func buildDemo(clusters, machines int, seed int64, budget float64, journalDir string, lockWait time.Duration, fire *telemetry.Firehose) (*market.Exchange, func() error, error) {
	rng := rand.New(rand.NewSource(seed))
	fleet, err := buildRegionFleet(rng, "", clusters, machines, true)
	if err != nil {
		return nil, nil, err
	}
	cfg := market.Config{InitialBudget: budget, Telemetry: fire}
	if journalDir == "" {
		ex, err := market.NewExchange(fleet, cfg)
		if err != nil {
			return nil, nil, err
		}
		return ex, noClose, openDemoAccounts(ex.OpenAccount)
	}
	if err := checkJournalMode(journalDir, false); err != nil {
		return nil, nil, err
	}
	// A directory locked by a live marketd refuses to open — startup
	// fails rather than interleaving two processes' writes in one WAL.
	// -lock-wait bounds a retry loop over exactly that refusal, for the
	// restart race where the old process is still draining.
	var j *journal.Journal
	var rec *journal.Recovery
	err = openJournal(journalDir, lockWait, func() (err error) {
		j, rec, err = journal.Open(journalDir, journal.Options{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, n := range rec.Notes {
		log.Printf("marketd: journal %s: %s", journalDir, n)
	}
	cfg.Journal = j
	// An empty recovery replays to a fresh exchange. The demo accounts were
	// journaled when they were first opened, so a recovery replays them —
	// opening them again would double-book.
	ex, err := market.Recover(fleet, cfg, rec)
	if err != nil {
		j.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", journalDir, err)
	}
	if rec.Empty() {
		log.Printf("marketd: journaling to %s", journalDir)
		if err := openDemoAccounts(ex.OpenAccount); err != nil {
			j.Close()
			return nil, nil, err
		}
		return ex, j.Close, nil
	}
	if vs := invariant.CheckExchange(ex); len(vs) > 0 {
		j.Close()
		return nil, nil, fmt.Errorf("recovered books fail invariants (refusing to serve): %s", vs[0])
	}
	log.Printf("marketd: recovered %d auctions and %d teams from %s (snapshot seq %d, %d WAL records replayed)",
		len(ex.History()), len(ex.Teams()), journalDir, rec.SnapshotSeq, len(rec.Records))
	return ex, j.Close, nil
}

// openDemoAccounts funds the demo teams through the given opener.
func openDemoAccounts(open func(team string) error) error {
	for _, team := range demoTeams {
		if err := open(team); err != nil {
			return err
		}
	}
	return nil
}

// checkJournalMode refuses a journal directory written in the other
// mode. A single exchange journals to the directory itself; a
// federation journals each region and the router to subdirectories.
// Opening one as the other would silently start fresh books beside the
// old ones.
func checkJournalMode(dir string, federated bool) error {
	_, err := os.Stat(filepath.Join(dir, federation.RouterDir))
	switch {
	case federated && journal.Exists(dir):
		return fmt.Errorf("journal dir %s holds a journal written by a single exchange (-regions 0); refusing to start a federated market on it", dir)
	case !federated && err == nil:
		return fmt.Errorf("journal dir %s holds %s/, written by a federated market (-regions >= 2); refusing to start a single exchange on it", dir, federation.RouterDir)
	}
	return nil
}

// buildFederatedDemo assembles N regional markets behind one federation.
// The first region runs hot and the rest cold, so the global view shows
// price contrast between regions and cross-region bids route away from
// the hot region. With journalDir set, federation.Open journals each
// region and the router under it, and recovers a directory holding a
// previous run whole or refuses it.
func buildFederatedDemo(regions, clusters, machines int, seed int64, budget float64, journalDir string, lockWait time.Duration, fire *telemetry.Firehose) (*federation.Federation, func() error, error) {
	if journalDir != "" {
		if err := checkJournalMode(journalDir, true); err != nil {
			return nil, nil, err
		}
	}
	var fed *federation.Federation
	var op federation.Opened
	err := openJournal(journalDir, lockWait, func() error {
		// Recovery replays placements onto the fleets, so every attempt
		// builds them afresh from the seed.
		rng := rand.New(rand.NewSource(seed))
		members := make([]federation.Member, regions)
		for i := range members {
			name := regionName(i)
			fleet, err := buildRegionFleet(rng, name+"-", clusters, machines, i == 0)
			if err != nil {
				return err
			}
			members[i] = federation.Member{Name: name, Fleet: fleet}
		}
		var err error
		fed, op, err = federation.Open(journalDir, journal.Options{}, market.Config{InitialBudget: budget, Telemetry: fire}, members...)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, n := range op.Notes {
		log.Printf("marketd: journal %s", n)
	}
	if op.Recovered {
		if vs := invariant.CheckFederation(fed); len(vs) > 0 {
			fed.Close()
			return nil, nil, fmt.Errorf("recovered federation fails invariants (refusing to serve): %s", vs[0])
		}
		// The demo accounts were journaled when they were first opened.
		log.Printf("marketd: recovered %d regions and routing state from %s", regions, journalDir)
		return fed, fed.Close, nil
	}
	if err := openDemoAccounts(fed.OpenAccount); err != nil {
		fed.Close()
		return nil, nil, err
	}
	if journalDir != "" {
		log.Printf("marketd: journaling %d regions and routing state under %s", regions, journalDir)
	}
	return fed, fed.Close, nil
}

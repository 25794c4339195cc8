package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/fault"
	"clustermarket/internal/invariant"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/stats"
	"clustermarket/internal/telemetry"
)

// The scenario world is fixed: every run has the same topology,
// population and clock bounds, and differs only by seed, length and the
// durability, telemetry and fault layers its Config attaches.
const (
	// numRegions scenario regions, each a fleet of clustersPerRegion
	// clusters of machinesPerCluster machines.
	numRegions         = 3
	clustersPerRegion  = 2
	machinesPerCluster = 10
	// numTeams is the initial bidder population.
	numTeams = 18
	// initialBudget is each account's opening balance.
	initialBudget = 2.5e5
	// maxRounds bounds each clock low enough that a hostile trader mix
	// hits the cap — a non-convergence storm — instead of grinding 100k
	// rounds.
	maxRounds = 1500
	// spotEvery runs the production≡reference clock-equivalence spot
	// check on one region's fresh bid stream every spotEvery epochs.
	spotEvery = 3
	// snapshotEvery bounds a journaled run's recovery replay: each
	// exchange snapshots every snapshotEvery auctions, and the router
	// every snapshotEvery settlements. Journals fsync every record.
	snapshotEvery = 3
)

// Config parameterizes one scenario run. The same Config must be used to
// build the Backend and to Run the scenario: determinism (seed) and the
// attached layers flow from it.
type Config struct {
	Seed int64
	// Epochs overrides the scenario's default epoch count when positive.
	Epochs int
	// JournalDir, when non-empty, makes the backend durable through
	// federation.Open: each market journals to JournalDir/<market>
	// (JournalDir/planet on the exchange kind, JournalDir/rK on the
	// federation kind) and the router to JournalDir/fed. NewBackend
	// refuses a directory with any subdirectory — scenarios always build
	// fresh worlds and recover only through CrashRecover.
	JournalDir string
	// CrashEpoch, when positive, kills the journaled backend without
	// flushing just before that epoch's settlement wave and resurrects it
	// from disk — the run must continue bit-identically (the crash-recovery
	// scenario's fingerprint check enforces it). Requires JournalDir and
	// an epoch the run reaches: Run refuses either miss before epoch 0.
	CrashEpoch int
	// Telemetry, when non-nil, streams the run onto the firehose: the
	// backend's markets and its router publish their event streams, and
	// the engine adds scenario-source epoch markers — epoch-start,
	// submit-rejected, epoch-end — so a subscriber can reconstruct the
	// run's fingerprint from the stream alone (see ReconstructReport).
	// Telemetry is independent of JournalDir: either, both, or neither
	// may be set. Pass the same Config to NewBackend and Run so backend
	// and engine publish to the same firehose.
	Telemetry *telemetry.Firehose
	// Injector, when non-nil, threads the deterministic fault injector
	// through the run: under every journal the backend opens (disk
	// faults), into the router's region calls and gossip, and
	// armed each epoch from the scenario's Faults schedule (plus random
	// windows in chaos mode). Scripted schedules keep fault counts within
	// the bounded inline retries, so a run whose faults all heal must
	// fingerprint-match the fault-free run — the disk-fault and
	// partition-storm scenarios enforce exactly that.
	Injector *fault.Injector
}

// Scenario is one scripted event timeline. Every hook is optional; nil
// means "no such events". Hooks must be pure functions of their inputs —
// the engine owns all randomness — so a scenario is replayable from a
// seed.
type Scenario struct {
	Name        string
	Description string
	// Epochs is the default run length.
	Epochs int
	// Adaptive enables premium learning: teams shade their next limit
	// from past results, reproducing the Table I trend.
	Adaptive bool
	// Intensity scales epoch demand (1 = baseline) — diurnal waves.
	Intensity func(epoch int) float64
	// HotFocus is the fraction of demand pinned to the market's hottest
	// cluster (r1-c1) — flash crowds.
	HotFocus func(epoch int) float64
	// Churn is the fraction of teams replaced at the epoch's start.
	Churn func(epoch int) float64
	// BudgetRefresh is the per-account budget credited at the epoch's
	// start, disbursed equal-shares through the billing ledger. Every
	// account ever opened receives it — churned-out teams keep their
	// accounts (and balances), as real quota-period rollovers do — so the
	// engine sizes the disbursed total by the full account population,
	// not just the live bidders.
	BudgetRefresh func(epoch int) float64
	// Down lists the regions dark this epoch: no new demand names their
	// clusters and (on the federation kind) their markets' auctions are
	// skipped.
	Down func(epoch int, regions []string) []string
	// TraderPairs injects that many hostile cycling trader pairs into the
	// first live region — clock non-convergence storms.
	TraderPairs func(epoch int) int
	// Evict removes this fraction of previously placed demand from every
	// live region at the epoch's end — the ebb of a diurnal trough.
	Evict func(epoch int) float64
	// Faults is the epoch's scripted fault schedule, armed into
	// Config.Injector just before demand generation (nil or an empty
	// slice means a clean epoch). Scripted windows must keep their counts
	// within the bounded inline retries (≤3 disk, ≤2 region) so every
	// fault heals invisibly and the run fingerprint-matches its
	// fault-free twin.
	Faults func(epoch int, regions []string) []fault.Window
	// Sell is the probability that a team whose home cluster is
	// congested offers part of its holding back this epoch, as a Section
	// II bid with negative quantities; a sophisticated team may trade its
	// home quota for the cheapest cluster's instead (see engine.sell). A
	// selling scenario's first teams start with a holding (endow), and
	// outlierFraction of its buy orders pay extreme premiums. Nil means
	// teams only buy.
	Sell func(epoch int) float64
}

func (sc *Scenario) intensity(e int) float64 {
	if sc.Intensity == nil {
		return 1
	}
	return sc.Intensity(e)
}
func (sc *Scenario) hotFocus(e int) float64 {
	if sc.HotFocus == nil {
		return 0
	}
	return sc.HotFocus(e)
}
func (sc *Scenario) churn(e int) float64 {
	if sc.Churn == nil {
		return 0
	}
	return sc.Churn(e)
}
func (sc *Scenario) budgetRefresh(e int) float64 {
	if sc.BudgetRefresh == nil {
		return 0
	}
	return sc.BudgetRefresh(e)
}
func (sc *Scenario) down(e int, regions []string) []string {
	if sc.Down == nil {
		return nil
	}
	return sc.Down(e, regions)
}
func (sc *Scenario) traderPairs(e int) int {
	if sc.TraderPairs == nil {
		return 0
	}
	return sc.TraderPairs(e)
}
func (sc *Scenario) evict(e int) float64 {
	if sc.Evict == nil {
		return 0
	}
	return sc.Evict(e)
}
func (sc *Scenario) faults(e int, regions []string) []fault.Window {
	if sc.Faults == nil {
		return nil
	}
	return sc.Faults(e, regions)
}

// RegionPrice is one region's mean CPU price at an epoch boundary.
type RegionPrice struct {
	Region  string
	MeanCPU float64
}

// EpochSummary is the deterministic record of one epoch. Two runs from
// the same seed must produce bit-identical summaries — the Fingerprint
// test enforces it.
type EpochSummary struct {
	Epoch int
	// Teams is the live bidder population after churn.
	Teams int
	// Submitted and Rejected count this epoch's product orders;
	// StormBids counts injected hostile trader bids.
	Submitted, Rejected, StormBids int
	// Auctions and Converged count settlement records this epoch.
	Auctions, Converged int
	// Settled sums orders settled as Won across this epoch's records.
	Settled int
	// Won, Lost, Unsettled count terminal outcomes observed among the
	// engine's tracked orders this epoch.
	Won, Lost, Unsettled int
	// MedianPremium is the median γ_u across this epoch's settlements
	// (0 when nothing settled) — the Table I column.
	MedianPremium float64
	// OpenOrders counts orders still awaiting settlement.
	OpenOrders int
	// Prices is each region's mean CPU price, in region order.
	Prices []RegionPrice
	// Dark lists the regions that were down this epoch.
	Dark []string
	// Violations counts invariant violations detected this epoch.
	Violations int
	// Offers and Trades count the sales and quota trades teams booked
	// this epoch (a selling scenario's; always 0 elsewhere).
	Offers, Trades int

	// The rest is what the figure views read (figures.go). Fingerprint
	// does not hash it: it is derived from the same run, and
	// ReconstructReport does not rebuild it.

	// Pools is every pool, in market order, around this epoch.
	Pools []PoolState
	// Records are the epoch's auction records, in market order.
	Records []*market.AuctionRecord
	// Orders are the orders the epoch resolved: won, lost or retired.
	Orders []Trade
}

// Report is a completed scenario run.
type Report struct {
	Scenario string
	Backend  string
	Seed     int64
	Epochs   []EpochSummary
	// Violations aggregates every invariant violation across epochs; a
	// clean run has none.
	Violations []invariant.Violation
}

// Fingerprint hashes the run's epoch summaries with bit-exact float
// encoding. Two same-seed runs of the same scenario on the same backend
// must return identical fingerprints.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d\n", r.Scenario, r.Backend, r.Seed)
	for _, s := range r.Epochs {
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%s|%d|%d|",
			s.Epoch, s.Teams, s.Submitted, s.Rejected, s.StormBids,
			s.Auctions, s.Converged, s.Settled, s.Won, s.Lost, s.Unsettled,
			hexFloat(s.MedianPremium), s.OpenOrders, s.Violations)
		for _, p := range s.Prices {
			fmt.Fprintf(&b, "%s=%s;", p.Region, hexFloat(p.MeanCPU))
		}
		fmt.Fprintf(&b, "|%s", strings.Join(s.Dark, ","))
		// Rendered only when set, so a scenario that never sells hashes
		// exactly as it did before teams could.
		if s.Offers != 0 || s.Trades != 0 {
			fmt.Fprintf(&b, "|%d|%d", s.Offers, s.Trades)
		}
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// hexFloat renders a float with every mantissa bit, so fingerprints
// detect even last-ulp divergence.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// simTeam is one synthetic bidder with persistent state across epochs.
type simTeam struct {
	name string
	home string
	// premium is the team's current shading above fair value; adaptive
	// scenarios move it from past results.
	premium float64
	// mobility is the probability of offering cross-region alternatives.
	mobility float64
	// held lists the tasks placed for the team's won orders, oldest
	// first: the quota a selling scenario's team can offer back.
	held []market.PlacedTask
	// age counts the epochs the team has been in the market.
	age int
}

// tracked is one open order the engine is watching.
type tracked struct {
	id   int
	team *simTeam
	// order is the order as the figure views will read it once resolved.
	order Trade
}

var products = []string{"batch-compute", "serving-frontend", "bigtable-node", "gfs-storage"}

// Run drives the backend through the scenario and returns the epoch
// report. It returns an error only for engine-breaking failures; broken
// invariants are collected in Report.Violations (and counted per epoch),
// so a soak can report exactly which epoch corrupted which book.
func Run(sc *Scenario, b *Backend, cfg Config) (*Report, error) {
	epochs := sc.Epochs
	if cfg.Epochs > 0 {
		epochs = cfg.Epochs
	}
	if epochs <= 0 {
		epochs = 8
	}
	// A scripted crash needs a journal to recover from and an epoch the
	// run reaches: refuse either miss up front, rather than fail mid-run
	// or pass a crash check with no crash in it.
	if cfg.CrashEpoch > 0 && cfg.JournalDir == "" {
		return nil, fmt.Errorf("scenario %s: CrashEpoch %d without a JournalDir", sc.Name, cfg.CrashEpoch)
	}
	if cfg.CrashEpoch >= epochs {
		return nil, fmt.Errorf("scenario %s: CrashEpoch %d is past the run's last epoch %d", sc.Name, cfg.CrashEpoch, epochs-1)
	}
	// The engine's rng is decorrelated from the backend-construction rng
	// (same seed, offset stream).
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	rep := &Report{Scenario: sc.Name, Backend: b.Kind(), Seed: cfg.Seed}
	allClusters := func() []string {
		var out []string
		for _, rn := range b.Regions() {
			out = append(out, b.ClustersOf(rn)...)
		}
		return out
	}()

	e := &engine{cfg: cfg, rng: rng, b: b, clusters: allClusters}
	if err := e.populate(); err != nil {
		return nil, err
	}
	if sc.Sell != nil {
		e.endow()
	}

	for epoch := 0; epoch < epochs; epoch++ {
		s, err := e.runEpoch(sc, epoch)
		if err != nil {
			return nil, fmt.Errorf("scenario %s epoch %d: %w", sc.Name, epoch, err)
		}
		rep.Epochs = append(rep.Epochs, *s)
		rep.Violations = append(rep.Violations, e.epochViolations...)
	}
	return rep, nil
}

type engine struct {
	cfg      Config
	rng      *rand.Rand
	b        *Backend
	clusters []string

	teams   []*simTeam
	teamSeq int
	open    []tracked
	// offers are the raw sales and trades still awaiting settlement.
	offers []offer

	epochViolations []invariant.Violation
}

// populate opens the initial team population plus the storm accounts.
func (e *engine) populate() error {
	for i := 0; i < numTeams; i++ {
		if err := e.addTeam(nil); err != nil {
			return err
		}
	}
	for _, t := range []string{"storm-a", "storm-b"} {
		if err := e.b.OpenAccount(t); err != nil {
			return err
		}
	}
	return nil
}

// addTeam opens one fresh account homed on a random cluster (drawn from
// live when non-nil, anywhere otherwise).
func (e *engine) addTeam(live []string) error {
	pool := e.clusters
	if len(live) > 0 {
		pool = live
	}
	t := &simTeam{
		name:     fmt.Sprintf("team-%03d", e.teamSeq),
		home:     pool[e.rng.Intn(len(pool))],
		premium:  0.4 + float64(e.rng.Float64()*1.4), // rounded before the add (make fma-check)
		mobility: e.rng.Float64(),
	}
	e.teamSeq++
	if err := e.b.OpenAccount(t.name); err != nil {
		return err
	}
	e.teams = append(e.teams, t)
	return nil
}

// fairCost values a product order at the operator's real unit costs —
// the reference price the team shades its premium over — and returns
// the resources that cover it.
func fairCost(product string, qty float64) (float64, cluster.Usage, error) {
	p, err := market.StandardCatalog().Lookup(product)
	if err != nil {
		return 0, cluster.Usage{}, err
	}
	cover := p.Cover(qty)
	return unitCost(cover), cover, nil
}

// unitCost values resources at the operator's real unit costs.
func unitCost(u cluster.Usage) float64 {
	c := cluster.OperatorUnitCost
	return float64(u.CPU*c.CPU) + float64(u.RAM*c.RAM) + float64(u.Disk*c.Disk) // rounded before the adds (make fma-check)
}

func (e *engine) runEpoch(sc *Scenario, epoch int) (*EpochSummary, error) {
	e.epochViolations = nil
	s := &EpochSummary{Epoch: epoch}

	// 1. Outage map for the epoch.
	down := make(map[string]bool)
	for _, rn := range sc.down(epoch, e.b.Regions()) {
		down[rn] = true
		s.Dark = append(s.Dark, rn)
	}
	sort.Strings(s.Dark)
	var live, liveRegions []string
	for _, rn := range e.b.Regions() {
		if down[rn] {
			continue
		}
		liveRegions = append(liveRegions, rn)
		live = append(live, e.b.ClustersOf(rn)...)
	}
	if len(live) == 0 {
		return nil, errors.New("every region is dark")
	}

	// 2. Budget refresh. Equal shares split across every account the
	// backend holds — teamSeq teams ever opened plus the two storm
	// accounts — so each account receives exactly the per-account amount
	// the scenario scripted, regardless of how much churn has grown the
	// account population.
	if per := sc.budgetRefresh(epoch); per > 0 {
		if err := e.b.Disburse(per * float64(e.teamSeq+2)); err != nil {
			return nil, err
		}
	}

	// 3. Bidder churn: the oldest teams leave, fresh ones join homed in
	// live regions.
	if frac := sc.churn(epoch); frac > 0 && len(e.teams) > 1 {
		n := int(frac * float64(len(e.teams)))
		if n >= len(e.teams) {
			n = len(e.teams) - 1
		}
		e.teams = append([]*simTeam(nil), e.teams[n:]...)
		for i := 0; i < n; i++ {
			if err := e.addTeam(live); err != nil {
				return nil, err
			}
		}
	}
	s.Teams = len(e.teams)

	// The epoch-start marker opens the epoch's window on the firehose:
	// every backend event until the matching epoch-end belongs to this
	// epoch. It is published after churn (so Teams is final) and before
	// demand generation (so every submit lands inside the window).
	e.cfg.Telemetry.Publish(EventSource, EvEpochStart, &EpochStartEvent{
		Epoch: epoch,
		Teams: s.Teams,
		Dark:  append([]string(nil), s.Dark...),
	})

	// Arm this epoch's fault schedule just before demand generation, so
	// the first armed disk fault lands on a submit append rather than on
	// the epoch's bookkeeping (budget refresh, churn account opening).
	// Arming replaces last epoch's windows, so a schedule a run never
	// consumed (disk faults on an in-memory backend) cannot accumulate.
	e.cfg.Injector.ArmEpoch(epoch, e.b.Regions(), sc.faults(epoch, e.b.Regions()))

	// 4. Demand generation. The pools are read first: ψ before any of
	// the epoch's orders is what sellers react to and the figures plot.
	// Teams in congested homes offer and trade first, and a team with a
	// sale open does not also bid to grow: it would buy back the quota it
	// is selling.
	pools, err := e.b.Pools()
	if err != nil {
		return nil, err
	}
	if sc.Sell != nil {
		e.sell(s, epoch, sc.Sell(epoch), pools, down)
	}
	selling := make(map[*simTeam]bool)
	for _, o := range e.offers {
		selling[o.team] = true
	}
	spotRegion := liveRegions[0]
	// spots are the spot region's product orders, replayed through both
	// clock engines for the equivalence spot check.
	var spots []Trade
	intensity := sc.intensity(epoch)
	hotFocus := sc.hotFocus(epoch)
	hotCluster := e.b.ClustersOf(e.b.Regions()[0])[0]
	hotLive := !down[e.b.Regions()[0]]
	for _, tm := range e.teams {
		if selling[tm] || e.rng.Float64() > 0.7*intensity {
			continue
		}
		product := products[e.rng.Intn(len(products))]
		// The draw, rand's multiply by 2⁻⁶³, and its product are each
		// rounded before the add (make fma-check).
		draw := float64(e.rng.Float64())
		qty := 1 + float64(draw*2)
		fair, cover, err := fairCost(product, qty)
		if err != nil {
			return nil, err
		}
		var clusters []string
		var limit float64
		if hotLive && e.rng.Float64() < hotFocus {
			// Flash-crowd demand: pinned to the hot pool, priced to win.
			clusters = []string{hotCluster}
			limit = fair * (2.5 + tm.premium)
		} else {
			if down[e.regionOfCluster(tm.home)] {
				// Teams homed in a dark region sit the epoch out.
				continue
			}
			clusters = []string{tm.home}
			if e.rng.Float64() < tm.mobility {
				// Up to two substitutable alternatives elsewhere — the
				// cross-region XOR path on the federation kind.
				for _, alt := range e.pickAlternates(tm.home, live, 2) {
					clusters = append(clusters, alt)
				}
			}
			limit = fair * (1 + tm.premium)
			if sc.Sell != nil && e.rng.Float64() < outlierFraction {
				// Figure 7's premium payers: a few teams pay heavily to
				// avoid re-engineering, whatever they have learnt.
				limit = fair * (1.5 + float64(6*tm.premium)) // rounded before the add (make fma-check)
			}
		}
		id, err := e.b.SubmitProduct(tm.name, product, qty, clusters, limit)
		if err != nil {
			// Over budget (or a leg rejected everywhere): a normal epoch
			// outcome for a drained account, not an engine failure. Rejected
			// submissions never reach the backend's event stream, so the
			// engine publishes the marker itself.
			s.Rejected++
			e.cfg.Telemetry.Publish(EventSource, EvSubmitRejected, &RejectEvent{Epoch: epoch, Kind: "product"})
			continue
		}
		s.Submitted++
		order := Trade{Side: Buy, User: tm.name + "/" + product, Home: tm.home, Limit: limit}
		for _, cn := range clusters {
			order.Bundles = append(order.Bundles, coverAt(cn, cover))
		}
		e.open = append(e.open, tracked{id: id, team: tm, order: order})
		if e.regionOfAll(clusters) == spotRegion {
			spots = append(spots, order)
		}
	}

	// 5. Hostile trader injection: cycling pairs whose mutual demand can
	// never clear within MaxRounds — a non-convergence storm.
	for i := 0; i < sc.traderPairs(epoch); i++ {
		injected, err := e.injectTraderPair(spotRegion)
		if err != nil {
			return nil, err
		}
		if injected {
			s.StormBids += 2
		} else {
			s.Rejected++
			e.cfg.Telemetry.Publish(EventSource, EvSubmitRejected, &RejectEvent{Epoch: epoch, Kind: "storm"})
		}
	}

	// 6. Scripted power loss: kill the journaled backend without flushing
	// and resurrect it from its WAL. Mid-epoch is the hostile moment —
	// demand is booked but unsettled — and the rest of the run must
	// proceed as if nothing happened.
	if e.cfg.CrashEpoch > 0 && epoch == e.cfg.CrashEpoch {
		if err := e.b.CrashRecover(); err != nil {
			return nil, fmt.Errorf("crash recovery: %w", err)
		}
	}

	// 7. Settlement wave.
	if err := e.b.Settle(down); err != nil {
		return nil, err
	}

	// 8. Outcome scan: evict sold quota, place won demand, adapt
	// premiums, drop terminal orders from tracking. Sales resolve first,
	// so what they free is there for the purchases placed after them.
	e.settleOffers(s)
	kept := e.open[:0]
	for _, tr := range e.open {
		st, err := e.b.Status(tr.id)
		if err != nil {
			return nil, err
		}
		switch st {
		case market.Open:
			kept = append(kept, tr)
			continue
		case market.Won:
			s.Won++
			var tasks []market.PlacedTask
			tasks, tr.order.Got = e.b.Place(tr.id)
			tr.team.held = append(tr.team.held, tasks...)
			if sc.Adaptive {
				tr.team.premium *= 0.55
				if tr.team.premium < 0.02 {
					tr.team.premium = 0.02
				}
			}
		case market.Lost:
			s.Lost++
			if sc.Adaptive {
				tr.team.premium = float64(tr.team.premium*1.25) + 0.08 // rounded before the add (make fma-check)
				if tr.team.premium > 3 {
					tr.team.premium = 3
				}
			}
		case market.Unsettled:
			s.Unsettled++
		}
		s.Orders = append(s.Orders, tr.order)
	}
	e.open = kept

	// 9. Demand ebb.
	if frac := sc.evict(epoch); frac > 0 {
		for _, rn := range liveRegions {
			e.b.EvictFraction(rn, frac)
		}
	}

	post, err := e.b.Pools()
	if err != nil {
		return nil, err
	}
	for i, p := range post {
		pools[i].PostUtil, pools[i].Price = p.Util, p.Price
	}
	s.Pools = pools
	for _, tm := range e.teams {
		tm.age++
	}

	// 10. Epoch record digest.
	var premiums []float64
	s.Records = e.b.EpochRecords()
	for _, rec := range s.Records {
		s.Auctions++
		if rec.Converged {
			s.Converged++
		}
		s.Settled += rec.Settled
		premiums = append(premiums, rec.Premiums...)
	}
	if len(premiums) > 0 {
		s.MedianPremium = stats.Median(premiums)
	}
	s.OpenOrders = e.b.OpenOrderCount()
	for _, rn := range e.b.Regions() {
		s.Prices = append(s.Prices, RegionPrice{Region: rn, MeanCPU: e.b.MeanCPUPrice(rn)})
	}

	// 11. The shared invariant kernel, every epoch — plus the periodic
	// dense≡incremental spot check over this epoch's fresh bid stream.
	vs := e.b.Check()
	if epoch%spotEvery == spotEvery-1 {
		vs = append(vs, e.spotCheck(spotRegion, spots)...)
	}
	for i, v := range vs {
		vs[i].Detail = fmt.Sprintf("epoch %d: %s", epoch, v.Detail)
	}
	e.epochViolations = vs
	s.Violations = len(vs)

	// The epoch-end marker closes the window and carries the engine-side
	// observations a backend's event stream cannot know: open orders and
	// prices are point-in-time reads, violations come from the invariant
	// kernel the engine itself ran.
	e.cfg.Telemetry.Publish(EventSource, EvEpochEnd, &EpochEndEvent{
		Epoch:      epoch,
		OpenOrders: s.OpenOrders,
		Violations: s.Violations,
		Prices:     append([]RegionPrice(nil), s.Prices...),
	})
	return s, nil
}

// regionOfCluster maps a cluster to its region via the shared naming
// scheme (rK-cJ).
func (e *engine) regionOfCluster(cn string) string {
	if i := strings.IndexByte(cn, '-'); i > 0 {
		return cn[:i]
	}
	return ""
}

// regionOfAll returns the single region owning every cluster, or "".
func (e *engine) regionOfAll(clusters []string) string {
	rn := ""
	for _, cn := range clusters {
		r := e.regionOfCluster(cn)
		if rn == "" {
			rn = r
		} else if r != rn {
			return ""
		}
	}
	return rn
}

// pickAlternates samples up to n live clusters other than home.
func (e *engine) pickAlternates(home string, live []string, n int) []string {
	var cands []string
	for _, cn := range live {
		if cn != home {
			cands = append(cands, cn)
		}
	}
	var out []string
	for len(out) < n && len(cands) > 0 {
		i := e.rng.Intn(len(cands))
		out = append(out, cands[i])
		cands = append(cands[:i], cands[i+1:]...)
	}
	return out
}

// injectTraderPair books the canonical cycling trader mix into the
// region: two traders, each buying CPU in one cluster against a sale in
// the other. Active together they keep both pools in positive excess
// demand, and their limits are deep enough that the clock hits MaxRounds
// before pricing them out — Section III.C.3's divergence hazard, made
// into a scenario event.
//
// The limit is sized to both ends: deep enough to survive the largest
// price climb one clock can produce (the capped policy moves each pool
// at most δ=0.25 per round, and the pair's per-round cost grows ≈150·p),
// yet small enough that three pairs stranded open by consecutive
// non-convergent epochs fit the storm account's budget commitment.
// Injection can still lose that race when earlier pairs linger — on
// either leg, since the two storm accounts' balances diverge once a
// stranded pair settles — so a budget rejection on the second leg rolls
// the first leg back; both cases are a normal storm outcome, reported
// as injected=false, not an error.
func (e *engine) injectTraderPair(region string) (injected bool, err error) {
	clusters := e.b.ClustersOf(region)
	if len(clusters) < 2 {
		return false, fmt.Errorf("region %q needs 2 clusters for a trader pair", region)
	}
	c1, c2 := clusters[0], clusters[1]
	reg := e.b.RegistryFor(c1)
	mk := func(buy, sell string) (*core.Bid, error) {
		v := reg.Zero()
		bi, ok := reg.Index(resource.Pool{Cluster: buy, Dim: resource.CPU})
		if !ok {
			return nil, fmt.Errorf("no CPU pool in %q", buy)
		}
		si, ok := reg.Index(resource.Pool{Cluster: sell, Dim: resource.CPU})
		if !ok {
			return nil, fmt.Errorf("no CPU pool in %q", sell)
		}
		v[bi] = 300
		v[si] = -150
		return &core.Bid{User: "storm/" + buy, Bundles: []resource.Vector{v}, Limit: 0.3 * initialBudget}, nil
	}
	b1, err := mk(c1, c2)
	if err != nil {
		return false, err
	}
	b2, err := mk(c2, c1)
	if err != nil {
		return false, err
	}
	id1, err := e.b.SubmitBid(c1, "storm-a", b1)
	if err != nil {
		return false, nil
	}
	if _, err := e.b.SubmitBid(c2, "storm-b", b2); err != nil {
		// A lone cycling trader is not the scripted event — withdraw the
		// first leg rather than leave an unmatched one-sided storm bid.
		if cerr := e.b.CancelBid(c1, id1); cerr != nil {
			return false, fmt.Errorf("rolling back trader pair leg %d: %w", id1, cerr)
		}
		return false, nil
	}
	return true, nil
}

// spotCheck replays the epoch's single-region product orders through
// both clock engines from the region's current reserve prices and
// demands bit-identical results — the scenario-level form of the
// incremental engine's differential guarantee.
func (e *engine) spotCheck(region string, spots []Trade) []invariant.Violation {
	if len(spots) < 2 {
		return nil
	}
	if len(spots) > 40 {
		spots = spots[:40]
	}
	reg := e.b.RegistryFor(e.b.ClustersOf(region)[0])
	start, err := e.b.ReservePrices(region)
	if err != nil {
		return []invariant.Violation{{Invariant: "engine-equivalence", Detail: "reserve prices: " + err.Error()}}
	}
	var bids []*core.Bid
	for _, sp := range spots {
		b := &core.Bid{User: "spot", Limit: sp.Limit}
		for _, bundle := range sp.Bundles {
			v := reg.Zero()
			for _, q := range bundle {
				i, _ := reg.Index(q.Pool) // a spot order names the region's clusters only
				v[i] = q.Qty
			}
			b.Bundles = append(b.Bundles, v)
		}
		bids = append(bids, b)
	}
	return invariant.CheckEngineEquivalence(reg, bids, core.Config{
		Start:     start,
		MaxRounds: maxRounds,
	})
}

// Package trace generates the synthetic bidder population that substitutes
// for the real Google engineering teams in the paper's experiments
// (Section V). Teams have a home cluster, holdings, budgets, relocation
// costs, and a sophistication level that evolves across auctions:
//
//   - Buyers request colocated CPU/RAM/disk bundles, XOR-substitutable
//     across clusters when the team is mobile (Section II).
//   - Teams in congested clusters offer resources for sale to exploit the
//     high prices there (Section V.B).
//   - Early-auction limits are wildly divergent; as sophistication rises
//     the bid premium γ_u shrinks, reproducing the Table I trend. A few
//     teams always pay large premiums to stay put (Figure 7's outliers).
//   - From the second auction onward, sophisticated teams place arbitrage
//     trades: sell in the expensive cluster, buy in the cheap one
//     (Section V.C).
//
// All randomness flows from a single seeded source, so generated markets
// are reproducible.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

// Side labels a generated bid for the Figure 7 breakdown.
type Side int

const (
	// Buy bids demand resources.
	Buy Side = iota
	// Sell bids offer resources.
	Sell
	// Trade bids do both (arbitrage).
	Trade
)

func (s Side) String() string {
	switch s {
	case Buy:
		return "bid"
	case Sell:
		return "offer"
	default:
		return "trade"
	}
}

// Team is one synthetic engineering team.
type Team struct {
	Name string
	// Home is the cluster the team currently runs in.
	Home string
	// Demand is the team's base resource need for one service replica
	// set.
	Demand cluster.Usage
	// Holdings is what the team currently owns in its home cluster and
	// can offer for sale.
	Holdings cluster.Usage
	// Budget caps the limits the team can bid.
	Budget float64
	// Mobility ∈ [0,1]: probability the team considers other clusters.
	Mobility float64
	// MoveCost ∈ [0,1]: the relocation premium — the extra fraction the
	// team will pay to stay in its home cluster rather than move
	// (Section V.B's "engineering cost to reconfiguring applications").
	MoveCost float64
	// Sophistication ∈ [0,1]: 0 bids wildly, 1 bids close to market.
	Sophistication float64
}

// Config parameterizes a Generator.
type Config struct {
	Seed     int64
	Clusters []string
	// Teams is the number of teams to synthesize.
	Teams int
}

// The population's fixed behaviour.
const (
	// sellerFraction of teams in congested clusters offer resources each
	// round.
	sellerFraction = 0.5
	// congestionThreshold is the utilization above which a cluster counts
	// as congested.
	congestionThreshold = 0.7
	// sophisticationGain is the per-auction reduction of (1 − s): the gap
	// to full sophistication halves each auction.
	sophisticationGain = 0.5
	// outlierFraction of buyers pay extreme premiums regardless of
	// sophistication.
	outlierFraction = 0.08
)

// Generator produces bid populations round after round.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	reg   *resource.Registry
	teams []*Team
	round int
}

// GeneratedBid couples a core bid with its provenance.
type GeneratedBid struct {
	Team *Team
	Bid  *core.Bid
	Side Side
}

// New builds a generator with a synthesized team population.
func New(cfg Config, reg *resource.Registry) (*Generator, error) {
	if len(cfg.Clusters) == 0 {
		return nil, errors.New("trace: no clusters")
	}
	if cfg.Teams <= 0 {
		return nil, errors.New("trace: need at least one team")
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), reg: reg}
	for i := 0; i < cfg.Teams; i++ {
		g.teams = append(g.teams, g.newTeam(i))
	}
	return g, nil
}

func (g *Generator) newTeam(i int) *Team {
	cpu := 10 + g.rng.Float64()*70
	demand := cluster.Usage{
		CPU:  math.Round(cpu),
		RAM:  math.Round(cpu * (1.5 + g.rng.Float64()*2.5)),
		Disk: math.Round(cpu*(0.1+g.rng.Float64()*0.4)*10) / 10,
	}
	return &Team{
		Name:           fmt.Sprintf("team-%03d", i),
		Home:           g.cfg.Clusters[g.rng.Intn(len(g.cfg.Clusters))],
		Demand:         demand,
		Holdings:       demand.Scale(1 + g.rng.Float64()*2),
		Budget:         2000 + g.rng.Float64()*8000,
		Mobility:       g.rng.Float64(),
		MoveCost:       g.rng.Float64() * 0.8,
		Sophistication: g.rng.Float64() * 0.3,
	}
}

// Teams exposes the generated population.
func (g *Generator) Teams() []*Team { return g.teams }

// RoundInput carries the market state the bidders react to.
type RoundInput struct {
	// Utilization is ψ(r) per pool.
	Utilization resource.Vector
	// ReferencePrices is the valuation basis: the former fixed prices in
	// auction 1, then the last settlement prices ("reserve prices
	// associated with bids move from closely tracking the former fixed
	// price values to values much closer to the dynamic market prices",
	// Section V.C).
	ReferencePrices resource.Vector
}

// Generate produces the bid population for the next auction and advances
// the round counter (bidder learning happens between auctions).
func (g *Generator) Generate(in RoundInput) ([]*GeneratedBid, error) {
	if len(in.Utilization) != g.reg.Len() || len(in.ReferencePrices) != g.reg.Len() {
		return nil, fmt.Errorf("trace: input vectors must have %d components", g.reg.Len())
	}
	var out []*GeneratedBid
	for _, team := range g.teams {
		if gb := g.buyBid(team, in); gb != nil {
			out = append(out, gb)
		}
		if gb := g.sellBid(team, in); gb != nil {
			out = append(out, gb)
		}
		if gb := g.tradeBid(team, in); gb != nil {
			out = append(out, gb)
		}
	}
	g.round++
	for _, team := range g.teams {
		team.Sophistication = 1 - (1-team.Sophistication)*(1-sophisticationGain)
	}
	if len(out) == 0 {
		return nil, errors.New("trace: round generated no bids")
	}
	return out, nil
}

// bundleFor builds the pool vector for the team's demand placed in a
// cluster, scaled by factor (negative factors build offers).
func (g *Generator) bundleFor(team *Team, clusterName string, qty cluster.Usage, factor float64) resource.Vector {
	v := g.reg.Zero()
	for _, d := range resource.StandardDimensions {
		if i, ok := g.reg.Index(resource.Pool{Cluster: clusterName, Dim: d}); ok {
			v[i] = qty.Get(d) * factor
		}
	}
	return v
}

// clusterUtil averages ψ over a cluster's dimensions.
func (g *Generator) clusterUtil(in RoundInput, clusterName string) float64 {
	idx := g.reg.ClusterPools(clusterName)
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += in.Utilization[i]
	}
	return s / float64(len(idx))
}

// buyBid creates the team's growth request: its demand bundle in the home
// cluster, XOR the same bundle in alternative clusters when mobile.
func (g *Generator) buyBid(team *Team, in RoundInput) *GeneratedBid {
	// Not every team grows every round.
	if g.rng.Float64() < 0.25 {
		return nil
	}
	growth := 0.3 + g.rng.Float64()*0.7
	qty := team.Demand.Scale(growth)

	bundles := []resource.Vector{g.bundleFor(team, team.Home, qty, 1)}
	if g.rng.Float64() < team.Mobility {
		// Consider up to three alternatives, preferring idle clusters.
		alts := g.pickAlternatives(team.Home, in, 3)
		for _, alt := range alts {
			bundles = append(bundles, g.bundleFor(team, alt, qty, 1))
		}
	}

	// Value the *cheapest* alternative at reference prices, then add the
	// premium the team will pay above it.
	fair := math.Inf(1)
	for _, b := range bundles {
		if c := b.Dot(in.ReferencePrices); c < fair {
			fair = c
		}
	}
	if fair <= 0 || math.IsInf(fair, 0) {
		return nil
	}
	premium := g.premium(team)
	limit := fair * (1 + premium)
	if len(bundles) == 1 {
		// Immobile teams pay their relocation premium to stay put.
		limit *= 1 + team.MoveCost
	}
	if limit > team.Budget {
		limit = team.Budget
	}
	if limit <= 0 {
		return nil
	}
	return &GeneratedBid{
		Team: team,
		Side: Buy,
		Bid:  &core.Bid{User: team.Name + "/buy", Bundles: bundles, Limit: limit},
	}
}

// premium draws the relative gap between limit and fair value. Spread
// shrinks with sophistication; a small fraction of teams are outliers who
// pay heavily to avoid reengineering (Figure 7's premium payers).
func (g *Generator) premium(team *Team) float64 {
	spread := 0.5*(1-team.Sophistication) + 0.005
	p := math.Abs(g.rng.NormFloat64()) * spread
	if g.rng.Float64() < outlierFraction {
		p = p*6 + 0.5
	}
	return p
}

// sellBid lets teams in congested clusters offer part of their holdings.
func (g *Generator) sellBid(team *Team, in RoundInput) *GeneratedBid {
	if g.clusterUtil(in, team.Home) < congestionThreshold {
		return nil
	}
	if g.rng.Float64() > sellerFraction {
		return nil
	}
	fraction := 0.2 + g.rng.Float64()*0.5
	qty := team.Holdings.Scale(fraction)
	offer := g.bundleFor(team, team.Home, qty, -1)
	if offer.IsZero() {
		return nil
	}
	fair := -offer.Dot(in.ReferencePrices) // positive revenue at reference prices
	if fair <= 0 {
		return nil
	}
	// Sellers low-ball, "confident that there will be ample competition
	// and that the final market price will be fair" (Section V.C). The
	// ask rises toward fair value with sophistication.
	askFraction := 0.05 + g.rng.Float64()*0.45
	askFraction += team.Sophistication * 0.4
	if askFraction > 0.95 {
		askFraction = 0.95
	}
	return &GeneratedBid{
		Team: team,
		Side: Sell,
		Bid: &core.Bid{
			User:    team.Name + "/sell",
			Bundles: []resource.Vector{offer},
			Limit:   -fair * askFraction,
		},
	}
}

// tradeBid places an arbitrage trade for sophisticated teams: sell the
// holding in an expensive congested cluster, buy the equivalent in the
// cheapest idle cluster, pocketing the spread.
func (g *Generator) tradeBid(team *Team, in RoundInput) *GeneratedBid {
	if g.round < 1 || team.Sophistication < 0.6 || g.rng.Float64() > 0.15 {
		return nil
	}
	homeUtil := g.clusterUtil(in, team.Home)
	if homeUtil < congestionThreshold {
		return nil
	}
	target := g.cheapestCluster(team.Home, in)
	if target == "" {
		return nil
	}
	qty := team.Holdings.Scale(0.3)
	sell := g.bundleFor(team, team.Home, qty, -1)
	buy := g.bundleFor(team, target, qty, 1)
	bundle := sell.Add(buy)
	if bundle.IsZero() {
		return nil
	}
	// Net payment limit: the trader insists on pocketing at least 10% of
	// the reference value of what it sells, i.e. limit < 0.
	refRevenue := -sell.Dot(in.ReferencePrices)
	limit := -0.1 * refRevenue
	return &GeneratedBid{
		Team: team,
		Side: Trade,
		Bid:  &core.Bid{User: team.Name + "/trade", Bundles: []resource.Vector{bundle}, Limit: limit},
	}
}

// pickAlternatives samples up to n distinct clusters other than home,
// weighted toward low utilization.
func (g *Generator) pickAlternatives(home string, in RoundInput, n int) []string {
	type cand struct {
		name   string
		weight float64
	}
	var cands []cand
	for _, c := range g.cfg.Clusters {
		if c == home {
			continue
		}
		w := 1.05 - g.clusterUtil(in, c)
		if w < 0.05 {
			w = 0.05
		}
		cands = append(cands, cand{c, w})
	}
	var out []string
	for len(out) < n && len(cands) > 0 {
		total := 0.0
		for _, c := range cands {
			total += c.weight
		}
		x := g.rng.Float64() * total
		pick := len(cands) - 1
		for i, c := range cands {
			x -= c.weight
			if x <= 0 {
				pick = i
				break
			}
		}
		out = append(out, cands[pick].name)
		cands = append(cands[:pick], cands[pick+1:]...)
	}
	return out
}

// cheapestCluster returns the cluster (≠ exclude) with the lowest average
// reference price across dimensions, or "" when there is none.
func (g *Generator) cheapestCluster(exclude string, in RoundInput) string {
	best := ""
	bestCost := math.Inf(1)
	for _, c := range g.cfg.Clusters {
		if c == exclude {
			continue
		}
		idx := g.reg.ClusterPools(c)
		if len(idx) == 0 {
			continue
		}
		var s float64
		for _, i := range idx {
			s += in.ReferencePrices[i]
		}
		s /= float64(len(idx))
		if s < bestCost {
			bestCost = s
			best = c
		}
	}
	return best
}

// ApplySettlement updates team holdings and homes from a settled auction
// whose i-th bid was gbs[i]: purchased quantities join holdings
// (relocating the team when it bought into another cluster), sold
// quantities leave.
func (g *Generator) ApplySettlement(gbs []*GeneratedBid, result *core.Result) {
	for i, gb := range gbs {
		if !result.IsWinner(i) {
			continue
		}
		alloc := gb.Bid.Bundle(result.ChosenBundle[i])
		// Work out where the positive part landed.
		for _, clusterName := range g.cfg.Clusters {
			var got cluster.Usage
			for _, d := range resource.StandardDimensions {
				if pi, ok := g.reg.Index(resource.Pool{Cluster: clusterName, Dim: d}); ok {
					q := alloc[pi]
					if q > 0 {
						got = got.Set(d, got.Get(d)+q)
					} else if q < 0 && clusterName == gb.Team.Home {
						// Sold from home holdings.
						h := gb.Team.Holdings
						nv := h.Get(d) + q
						if nv < 0 {
							nv = 0
						}
						gb.Team.Holdings = h.Set(d, nv)
					}
				}
			}
			if !got.IsZero() {
				if clusterName != gb.Team.Home && gb.Side == Buy {
					// The team migrated.
					gb.Team.Home = clusterName
					gb.Team.Holdings = got
				} else {
					gb.Team.Holdings = gb.Team.Holdings.Add(got)
				}
			}
		}
	}
}

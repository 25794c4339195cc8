package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"clustermarket/internal/resource"
)

// This file implements the clock's lanes and the driver that merges
// them. The paper's planet of 100+ clusters with mostly-regional bidding
// means the bidder–pool graph — bids on one side, resource pools on the
// other, an edge where a bundle has a non-zero component — usually
// splits into many small connected components. Pools in different
// components never share a bidder, and a bid's proxy only ever reads the
// prices of the pools its bundles touch, so Algorithm 1's dynamics factor
// exactly across components:
//
//   - The step rule is per-pool-local (Capped.StepInto writes dst[i] from
//     z[i] alone), so the price path of a component's pools depends only
//     on that component's excess demand.
//   - Excess demand on a component's pools is summed from that
//     component's proxies alone, and the lane keeps them in the same
//     ascending order, so each pool sees the identical float addition
//     sequence the whole-market rebuild performs (addition is not
//     associative; order is the contract).
//   - The pool remap is order-preserving (ascending global index →
//     ascending local index), so within-bundle sparse iteration order is
//     unchanged too.
//
// Every auction is therefore a list of one or more lanes, each running
// the one round loop (runClock) on its own scratch, and the only
// cross-lane coupling is control flow, which the driver (runLanes) alone
// decides:
//
//   - The stopping test z(t) ≤ ε is a global conjunction. With ε > 0 a
//     lane can be cleared (z ≤ ε) yet unfrozen (z ∈ (0, ε] still steps
//     while some other lane keeps the clock running), so each lane runs
//     until its step vector is zero ("frozen", after which its state is
//     constant) while recording a per-round cleared bit; the stop round T
//     is the first round at which every lane was cleared, and any lane
//     whose scratch ran past T is deterministically re-run capped at
//     exactly T — the same arithmetic replayed, stopping pre-step as
//     Algorithm 1 does. A sole lane is the whole conjunction, so it stops
//     at its first cleared round and never pays a re-run.
//   - The stall test (a zero step with positive excess demand) is a
//     global vector test: the whole step is zero exactly when every lane
//     has frozen, so a market whose lanes all freeze without a common
//     cleared round stalls at the last lane's freeze round.
//
// Settlement scatters the lanes' prices and choices into the Result; a
// payment is the chosen bundle's dot over its lane's prices — the same
// values in the same ascending pool order as over the global vector, so
// the same bits. The differential tests enforce production ≡ ReferenceRun
// equality on every Result field.

// lane is one independently clocked slice of the market: an ascending
// slice of global pool ids, the ascending global indices of the bids
// touching them, those bids' flat kernel over the compacted pool ids, and
// the round loop's whole working set, recycled across runs.
type lane struct {
	// pools holds the lane's global pool ids in ascending order; local
	// pool j is global pool pools[j].
	pools []int32
	// bids holds the lane's global bid indices in ascending order; local
	// proxy k is global bid bids[k].
	bids []int32
	// cfg is the auction's configuration with Start gathered onto the
	// lane's pools.
	cfg Config
	kernel

	// One run's state (see incremental.go): prices, excess demand and
	// step; each bundle's cached cost; each proxy's demanded bundle (−1
	// when priced out), drop round and retirement flag.
	p, z, step resource.Vector
	cost       []float64
	chosen     []int32
	drop       []int32
	retired    []bool
	// The pool→bundle index, live: pool r's list liveB/liveV[at[r]:liveEnd[r]]
	// holds the bundles touching r, ascending, with their quantity at r,
	// and liveP the proxies, ascending — both without retired buyers.
	liveB   []int32
	liveV   []float64
	liveEnd []int32
	liveP   []int32
	// Epoch-stamped dedup marks: a mark equal to the current epoch means
	// "already gathered this round", so clearing between rounds is O(1).
	epoch                           int32
	bundleMark, proxyMark, poolMark []int32
	// Gather buffers: the proxies to re-choose, the pools to re-sum, and
	// the pools the last step moved.
	affected, stale, dirty []int32
	stats                  ClockStats

	// hist holds the lane's per-round history snapshots.
	hist []Round
	// cleared[t] records whether the lane's excess demand passed z ≤ ε
	// at round t of the autonomous run.
	cleared []bool
	// end is the round whose state the scratch holds pre-step — the
	// freeze round, a sole lane's cleared round, or a re-run's cap — or
	// MaxRounds when the clock ran out (post-step state).
	end int
	// frozen reports that the autonomous run ended with a zero step, so
	// the lane's state is constant from round end onward.
	frozen bool
}

// unionFind is a union-find forest over global pool ids with path
// halving; union keeps the smaller root so a component's representative
// is its smallest pool id.
type unionFind []int32

func (uf unionFind) find(x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	switch {
	case ra < rb:
		uf[rb] = ra
	case rb < ra:
		uf[ra] = rb
	}
}

// laneList returns the auction's cached lanes. They are built once per
// Auction — bids are frozen after NewAuction — and reused across runs.
//
//marketlint:allocfree
func (a *Auction) laneList() []*lane {
	if a.lanes == nil {
		//marketlint:allow allocfree one-time lane build, cached on the Auction across runs
		a.lanes = a.buildLanes()
	}
	return a.lanes
}

// Components returns the number of lanes Run clocks independently: the
// connected components of the bidder–pool graph, or 1 for a market the
// decomposition keeps whole (a single component, a −0 reserve price).
func (a *Auction) Components() int { return len(a.laneList()) }

// wholeLane is the one-lane list of a market that is not decomposed: the
// same kernel build through identity pool and bid maps, on the auction's
// own start prices, so the lane's clock is Algorithm 1 on the whole
// market.
func (a *Auction) wholeLane() []*lane {
	pools, bids := make([]int32, len(a.cfg.Start)), make([]int32, len(a.bids))
	for g := range pools {
		pools[g] = int32(g)
	}
	for i := range bids {
		bids[i] = int32(i)
	}
	return []*lane{a.newLane(pools, bids, pools, a.cfg)}
}

// buildLanes computes the connected components of the bidder–pool graph
// and assembles one lane per component. The market stays one whole lane
// when it has fewer than two components or a −0 reserve price (the
// whole-market clock normalizes −0 to +0 the first time it adds a zero
// step; a scattered reconstruction that skips untouched pools would
// preserve the sign bit and break bit-identity of the formatted
// fingerprints).
func (a *Auction) buildLanes() []*lane {
	r := len(a.cfg.Start)
	for _, v := range a.cfg.Start {
		if v == 0 && math.Signbit(v) {
			return a.wholeLane()
		}
	}

	// Union the pools of each bid across all its bundles: an XOR set
	// bridges every pool set it mentions, whichever bundle wins.
	uf := make(unionFind, r)
	for g := range uf {
		uf[g] = int32(g)
	}
	touched := make([]bool, r)
	for i := range a.bids {
		rw := a.rowsOf(i)
		for _, g := range rw.idx[:len(rw.val)] {
			touched[g] = true
			uf.union(rw.idx[0], g)
		}
	}

	// Assign component ids in ascending smallest-pool order — the
	// deterministic lane order every later merge loop follows — and
	// gather each component's pools ascending, local[g] being pool g's
	// position among them. Pools no bid touches stay out of every
	// component: their excess demand is identically zero, so the clock
	// never moves them off the reserve price.
	compOf, local := make([]int32, r), make([]int32, r)
	var pools [][]int32
	for g := 0; g < r; g++ {
		if !touched[g] {
			continue
		}
		root := uf.find(int32(g))
		if root == int32(g) {
			compOf[root] = int32(len(pools))
			pools = append(pools, nil)
		}
		c := compOf[root]
		local[g] = int32(len(pools[c]))
		pools[c] = append(pools[c], int32(g))
	}
	if len(pools) < 2 {
		return a.wholeLane()
	}

	// Every validated bid has a non-empty first bundle, so its component
	// is the one owning that bundle's first pool. Visiting bids in input
	// order keeps each lane's bid list ascending — the order that
	// preserves the whole-market run's per-pool float addition sequence.
	// Counted first, so each list is one exact allocation.
	of, count := make([]int32, len(a.bids)), make([]int, len(pools))
	for i := range a.bids {
		of[i] = compOf[uf.find(a.rowsOf(i).idx[0])]
		count[of[i]]++
	}
	bids := make([][]int32, len(pools))
	for c := range bids {
		bids[c] = make([]int32, 0, count[c])
	}
	for i, c := range of {
		bids[c] = append(bids[c], int32(i))
	}

	lanes := make([]*lane, len(pools))
	for c := range lanes {
		cfg := a.cfg
		cfg.Start = make(resource.Vector, len(pools[c]))
		for j, g := range pools[c] {
			cfg.Start[j] = a.cfg.Start[g]
		}
		lanes[c] = a.newLane(pools[c], bids[c], local, cfg)
	}
	return lanes
}

// runClock is the production round loop: Algorithm 1 with incremental
// demand revelation (see incremental.go) on one lane's kernel. Its
// arithmetic is the reference loop's, round for round; what it leaves to
// the driver is the global control flow:
//
//   - a lane that is not the sole one does not stop on its local z ≤ ε
//     test (a cleared lane can keep stepping while the clock runs for
//     others); it stops when the step vector is zero — frozen, state
//     constant from round t onward — returning (t, true). A sole lane's
//     test is the global one, so it stops there: (t, false);
//   - a zero step is not an error here: whether the clock stalls is a
//     global question the driver answers;
//   - with capT ≥ 0 it stops at exactly round capT right after the
//     round's demand revelation, pre-step — where Algorithm 1 stands
//     when the global stopping test passes at capT;
//   - when the rounds run out it returns (MaxRounds, false) with the
//     scratch holding the post-step prices and the final round's choices,
//     Algorithm 1's non-convergent settle state.
//
// Per-round cleared bits and history are recorded only on uncapped runs
// (a capped re-run replays a prefix already recorded).
//
//marketlint:allocfree
func (c *lane) runClock(capT int, sole bool) (int, bool) {
	c.reset()
	active := c.open()
	for t := 0; t < c.cfg.MaxRounds; t++ {
		if t > 0 {
			active = c.advance(t, active)
		}
		c.stats.LaneRounds++
		if capT < 0 {
			if c.cfg.RecordHistory {
				c.hist = appendRound(c.hist, t, c.p, c.z, active)
			}
			cleared := c.z.AllNonPositive(c.cfg.Epsilon)
			//marketlint:allow allocfree cleared-bit scratch is cached on the lane; growth is amortized across runs
			c.cleared = append(c.cleared, cleared)
			if cleared && sole {
				return t, false
			}
		}
		if t == capT {
			return t, false
		}
		c.cfg.Policy.StepInto(c.step, c.z)
		if c.step.MaxAbs() == 0 {
			return t, true
		}
		c.p.AddInto(c.step)
		// The dirty pools for next round's re-evaluation are exactly the
		// components the step moved.
		c.dirty = c.dirty[:0]
		for r, s := range c.step {
			if s > 0 {
				c.dirty = append(c.dirty, int32(r))
			}
		}
	}
	return c.cfg.MaxRounds, false
}

// runAutonomous runs the lane clock to its natural end — frozen, out of
// rounds, or (sole) cleared — recording cleared bits for the driver's
// stop-round scan.
//
//marketlint:allocfree
func (c *lane) runAutonomous(sole bool) {
	c.cleared, c.stats = c.cleared[:0], ClockStats{}
	c.end, c.frozen = c.runClock(-1, sole)
}

// rerunCapped deterministically replays the lane clock to exactly round
// capT: identical arithmetic, so identical states, with the scratch left
// holding round capT's prices and choices pre-step.
//
//marketlint:allocfree
func (c *lane) rerunCapped(capT int) {
	c.stats.Reruns++
	c.end, c.frozen = c.runClock(capT, false)
}

// sweep drives every lane clock. Lanes share no state at all, so with
// two or more of them and a second CPU to put them on they are fanned
// out over GOMAXPROCS workers, bit-identical to the serial sweep.
//
//marketlint:allocfree
func sweep(lanes []*lane) {
	if len(lanes) < 2 || runtime.GOMAXPROCS(0) < 2 {
		for _, c := range lanes {
			c.runAutonomous(len(lanes) == 1)
		}
		return
	}
	//marketlint:allow allocfree fan-out taken only with ≥ 2 lanes and GOMAXPROCS ≥ 2; spawn cost is amortized over whole lane clocks
	sweepParallel(lanes)
}

// sweepParallel is sweep's goroutine fan-out: up to GOMAXPROCS workers
// pull lanes off a shared atomic cursor.
func sweepParallel(lanes []*lane) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(lanes) {
		workers = len(lanes)
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(lanes) {
					return
				}
				lanes[i].runAutonomous(false)
			}
		}()
	}
	wg.Wait()
}

// findStopRound computes T, the clock's stop round: the first round at
// which every lane's excess demand passed z ≤ ε. A frozen lane's state —
// and so its cleared bit — is constant beyond its freeze round, which
// the min-index clamp encodes. The scan is bounded by the longest lane
// run, past which no state changes; ok is false when no common cleared
// round exists (the clock stalls or runs out of rounds).
//
//marketlint:allocfree
func findStopRound(lanes []*lane) (int, bool) {
	limit := 0
	for _, c := range lanes {
		if len(c.cleared) > limit {
			limit = len(c.cleared)
		}
	}
	for t := 0; t < limit; t++ {
		all := true
		for _, c := range lanes {
			i := t
			if i >= len(c.cleared) {
				i = len(c.cleared) - 1
			}
			if !c.cleared[i] {
				all = false
				break
			}
		}
		if all {
			return t, true
		}
	}
	return 0, false
}

// scatterState writes the global settle state from the lanes into res:
// prices scattered over the reserve vector (pools outside every lane
// never move off it); chosen bundles, drop rounds and each winner's
// payment — its bundle's cost at the final prices, the same ascending-row
// dot on the lane's slabs — scattered by global bid index; and the lanes'
// work counters summed.
//
//marketlint:allocfree
func scatterState(lanes []*lane, res *Result) {
	res.Clock.Lanes = len(lanes)
	for _, c := range lanes {
		for j, g := range c.pools {
			res.Prices[g] = c.p[j]
		}
		for k, bi := range c.bids {
			res.ChosenBundle[bi], res.Payments[bi] = -1, 0
			if b := c.chosen[k]; b >= 0 {
				res.ChosenBundle[bi], res.Payments[bi] = int(b-c.first[k]), c.price(b)
			}
			res.DropRound[bi] = int(c.drop[k])
		}
		res.Clock.Add(c.stats)
	}
}

// mergeHistory assembles the per-round history from the lane histories,
// in global pool order: round t scatters each lane's round min(t, end)
// snapshot — frozen lanes repeat their final state — over the reserve
// prices and a zero excess-demand vector, summing active-bidder counts.
//
//marketlint:allocfree
func (a *Auction) mergeHistory(lanes []*lane, res *Result, rounds int) {
	for t := 0; t < rounds; t++ {
		res.History = appendMergedRound(res.History, lanes, t, a.cfg.Start)
	}
}

// appendMergedRound records one merged history snapshot, recycling the
// vectors of a Round beyond len(h) when RunReusing supplied one — the
// scatter form of appendRound.
//
//marketlint:allocfree
func appendMergedRound(h []Round, lanes []*lane, t int, start resource.Vector) []Round {
	if len(h) < cap(h) {
		h = h[:len(h)+1]
	} else {
		//marketlint:allow allocfree history growth: runs once per new history depth, then the rounds above are recycled
		h = append(h, Round{})
	}
	r := &h[len(h)-1]
	r.T = t
	r.Prices = r.Prices.CopyFrom(start)
	r.ExcessDemand = r.ExcessDemand.Resize(len(start))
	r.ExcessDemand.SetZero()
	active := 0
	for _, c := range lanes {
		i := t
		if i >= len(c.hist) {
			i = len(c.hist) - 1
		}
		src := &c.hist[i]
		for j, g := range c.pools {
			r.Prices[g] = src.Prices[j]
			r.ExcessDemand[g] = src.ExcessDemand[j]
		}
		active += src.ActiveBidders
	}
	r.ActiveBidders = active
	return h
}

// runLanes is the driver: autonomous lane clocks, then the global
// outcome — the stop-round scan, capped re-runs for lanes that ran past
// it, the stall and out-of-rounds endings — and the in-order merge.
//
//marketlint:allocfree
func (a *Auction) runLanes(lanes []*lane, res *Result) (*Result, error) {
	sweep(lanes)
	T, ok := findStopRound(lanes)
	if !ok {
		last, allFrozen := 0, true
		for _, c := range lanes {
			allFrozen = allFrozen && c.frozen
			if c.end > last {
				last = c.end
			}
		}
		if allFrozen {
			// Every lane froze but no round has them all cleared: the
			// whole step vector is zero from the last freeze round on,
			// with positive excess demand. Without progress the clock
			// would spin forever.
			//marketlint:allow allocfree error path; the run is abandoned
			return nil, fmt.Errorf("core: clock stalled with positive excess demand at round %d", last)
		}
		// At least one lane stepped through every round and the global
		// stopping test never passed: the clock runs out of rounds and
		// settles its post-step state.
		if a.cfg.RecordHistory {
			a.mergeHistory(lanes, res, a.cfg.MaxRounds)
		}
		res.Converged = false
		res.Rounds = a.cfg.MaxRounds
		scatterState(lanes, res)
		a.settle(res)
		return res, ErrNoConvergence
	}
	if a.cfg.RecordHistory {
		a.mergeHistory(lanes, res, T+1)
	}
	for _, c := range lanes {
		if c.end > T {
			// The lane's scratch holds a later state than the clock ever
			// reached. Replay it to exactly round T.
			c.rerunCapped(T)
		}
	}
	res.Converged = true
	res.Rounds = T + 1
	scatterState(lanes, res)
	a.settle(res)
	return res, nil
}

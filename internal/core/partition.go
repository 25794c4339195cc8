package core

import (
	"math"
	"runtime"
	"slices"
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
//   - The stopping test z(t) ≤ 0 is a global conjunction. A lane whose
//     pools all clear takes a zero step (prices only rise on positive
//     excess demand), so its state is constant from that round on. A lane
//     with positive excess demand always moves (Capped.MinStep > 0), so
//     each lane runs once, to one of two ends — cleared, or out of rounds
//     — and the market converges, at the last lane's cleared round, only
//     when every lane cleared. A lane out of rounds runs the whole clock
//     out, and its bids are held (Result.Held); every other lane's
//     outcome is its own cleared state, whatever the held lane did.
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
	// liveP lists the proxies, ascending, without retired buyers.
	liveP []int32
	// The re-pricing index, live: pool r's walk[walkAt[r]:shapeEnd[r]]
	// lists its shapes with a live member and walk[soloAt[r]:soloEnd[r]]
	// its singleton bundles, and shape s's liveM[mAt[s]:mEnd[s]] and
	// liveM[ordLo[s]:mAt[s+1]] its members still in the running.
	walk, shapeEnd, soloEnd []int32
	liveM, mEnd, ordLo      []int32
	// Epoch-stamped dedup marks: a mark equal to the current epoch means
	// "already gathered this round", so clearing between rounds is O(1).
	epoch                                      int32
	bundleMark, shapeMark, proxyMark, poolMark []int32
	// Gather buffers: the proxies to re-choose, the pools to re-sum, and
	// the pools the last step moved.
	affected, stale, dirty []int32
	stats                  ClockStats

	// hist holds the lane's per-round history snapshots.
	hist []Round
	// rounds is how many rounds the lane ran, and out whether it ran out
	// of them: the scratch then holds the post-step state at MaxRounds,
	// otherwise the pre-step state of the round the lane cleared.
	rounds int
	out    bool
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

// wholeLane is the one-lane list of a market (nB bundles, nnz rows) that
// is not decomposed: the same kernel build through identity pool and bid
// maps, on the auction's own start prices, so the lane's clock is
// Algorithm 1 on the whole market.
func (a *Auction) wholeLane(nB, nnz int) []*lane {
	pools, bids := make([]int32, len(a.cfg.Start)), make([]int32, len(a.bids))
	for g := range pools {
		pools[g] = int32(g)
	}
	for i := range bids {
		bids[i] = int32(i)
	}
	return []*lane{a.newLane(pools, bids, pools, nB, nnz, shapeTable(nB))}
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
	// Union the pools of each bid across all its bundles: an XOR set
	// bridges every pool set it mentions, whichever bundle wins.
	uf := make(unionFind, r)
	for g := range uf {
		uf[g] = int32(g)
	}
	touched, nB, nnz := make([]bool, r), 0, 0
	for i := range a.bids {
		rw := &a.bids[i].rows
		nB, nnz = nB+int(rw.n), nnz+len(rw.val)
		for _, g := range rw.idx[:len(rw.val)] {
			touched[g] = true
			uf.union(rw.idx[0], g)
		}
	}
	for _, v := range a.cfg.Start {
		if v == 0 && math.Signbit(v) {
			return a.wholeLane(nB, nnz)
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
		return a.wholeLane(nB, nnz)
	}

	// Every validated bid has a non-empty first bundle, so its component
	// is the one owning that bundle's first pool. Visiting bids in input
	// order keeps each lane's bid list ascending — the order that
	// preserves the whole-market run's per-pool float addition sequence.
	// Counted first, so each list is one exact allocation; so are each
	// lane's bundles and rows, which size its slabs and the one shape
	// table every lane is grouped in.
	of, count := make([]int32, len(a.bids)), make([]int, 3*len(pools))
	count, bundles, rows := count[:len(pools)], count[len(pools):2*len(pools)], count[2*len(pools):]
	for i := range a.bids {
		rw := &a.bids[i].rows
		of[i] = compOf[uf.find(rw.idx[0])]
		count[of[i]]++
		bundles[of[i]] += int(rw.n)
		rows[of[i]] += len(rw.val)
	}
	a.laneOf = of
	bids := make([][]int32, len(pools))
	for c := range bids {
		bids[c] = make([]int32, 0, count[c])
	}
	for i, c := range of {
		bids[c] = append(bids[c], int32(i))
	}

	table := shapeTable(slices.Max(bundles))
	lanes := make([]*lane, len(pools))
	for c := range lanes {
		lanes[c] = a.newLane(pools[c], bids[c], local, bundles[c], rows[c], table)
	}
	return lanes
}

// runClock is the production round loop: Algorithm 1 with incremental
// demand revelation (see incremental.go) on one lane's kernel. Its
// arithmetic is the reference loop's, round for round; it runs the lane
// to one of its two ends, leaving the market's ending to the driver:
//
//   - cleared: it stops at the first round with z ≤ 0, pre-step, where
//     Algorithm 1 stops;
//   - out: when the rounds run out the scratch holds the post-step prices
//     and the final round's choices, Algorithm 1's non-convergent settle
//     state.
//
// A round past 0 that switched no choice has last round's z, so it adds
// last round's step on last round's dirty pools again (incremental.go).
//
//marketlint:allocfree
func (c *lane) runClock() {
	c.reset()
	active := c.open()
	for t := 0; t < c.cfg.MaxRounds; t++ {
		switched := true
		if t > 0 {
			active, switched = c.advance(t, active)
		}
		c.stats.LaneRounds++
		if c.cfg.RecordHistory {
			c.hist = appendRound(c.hist, t, c.p, c.z, active)
		}
		if !switched {
			c.stats.Reused++
			for _, r := range c.dirty {
				c.p[r] += c.step[r]
			}
			continue
		}
		if c.z.AllNonPositive(0) {
			c.rounds, c.out = t+1, false
			return
		}
		c.cfg.Policy.StepInto(c.step, c.z)
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
	c.rounds, c.out = c.cfg.MaxRounds, true
}

// sweep drives every lane clock. Lanes share no state at all, so with
// two or more of them and a second CPU to put them on they are fanned
// out over GOMAXPROCS workers, bit-identical to the serial sweep.
//
//marketlint:allocfree
func sweep(lanes []*lane) {
	if len(lanes) < 2 || runtime.GOMAXPROCS(0) < 2 {
		for _, c := range lanes {
			c.runClock()
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
				lanes[i].runClock()
			}
		}()
	}
	wg.Wait()
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
		if c.out {
			res.Clock.Held++
		}
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
// snapshot — ended lanes repeat their final state — over the reserve
// prices and a zero excess-demand vector, summing active-bidder counts.
func (a *Auction) mergeHistory(lanes []*lane, res *Result) {
	res.History = make([]Round, res.Rounds)
	for t := range res.History {
		r := &res.History[t]
		r.T, r.Prices, r.ExcessDemand = t, a.cfg.Start.Clone(), make(resource.Vector, len(a.cfg.Start))
		for _, c := range lanes {
			src := &c.hist[min(t, len(c.hist)-1)]
			for j, g := range c.pools {
				r.Prices[g] = src.Prices[j]
				r.ExcessDemand[g] = src.ExcessDemand[j]
			}
			r.ActiveBidders += src.ActiveBidders
		}
	}
}

// runLanes is the driver: lane clocks, then the market's ending — it
// converges when no lane ran out, after the longest lane's rounds (every
// round there is when one did) — the held bids and the in-order merge.
func (a *Auction) runLanes(lanes []*lane, res *Result) (*Result, error) {
	sweep(lanes)
	res.Converged = true
	for _, c := range lanes {
		res.Converged = res.Converged && !c.out
		res.Rounds = max(res.Rounds, c.rounds)
	}
	if a.cfg.RecordHistory {
		a.mergeHistory(lanes, res)
	}
	scatterState(lanes, res)
	a.settle(res)
	if !res.Converged {
		a.hold(lanes, res)
		return res, ErrNoConvergence
	}
	return res, nil
}

// hold lists the bids of the lanes that ran out in res.Held, in input
// order.
func (a *Auction) hold(lanes []*lane, res *Result) {
	for i := range a.bids {
		if a.laneOf == nil || lanes[a.laneOf[i]].out {
			res.Held = append(res.Held, i)
		}
	}
}

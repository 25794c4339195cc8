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
//   - Every built-in IncrementPolicy is per-pool-local (StepInto writes
//     dst[i] from z[i], p[i] and per-pool parameters only), so the price
//     path of a component's pools depends only on that component's excess
//     demand.
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
//   - A negative step is a lane's own error: validated built-in policies
//     cannot produce one, and a foreign policy always runs as one lane.
//
// Settlement runs the auction's settle() against the scattered global
// price vector and choices, so payments are the same sparse dot products
// over the same global prices, bit for bit. The differential tests
// enforce production ≡ ReferenceRun equality on every Result field.

// lane is one independently clocked slice of the market: an ascending
// slice of global pool ids, the ascending global indices of the bids
// touching them, and a private Auction over the compacted vectors whose
// scratch, incremental state, and Result are recycled across runs.
type lane struct {
	// pools holds the lane's global pool ids in ascending order; local
	// pool j is global pool pools[j].
	pools []int32
	// bids holds the lane's global bid indices in ascending order; local
	// bid k is global bid bids[k].
	bids []int32
	// auc runs the lane's clock. Its bids are the original *Bid pointers
	// (limits and classes are remap-invariant); a component lane's
	// proxies carry index-remapped sparse bundles sharing the original
	// value slices, the whole-market lane shares the parent's proxies.
	auc *Auction
	// res receives the lane clock's DropRound bookkeeping and per-round
	// history snapshots; recycled across runs.
	res *Result
	// cleared[t] records whether the lane's excess demand passed z ≤ ε
	// at round t of the autonomous run; recycled across runs.
	cleared []bool
	// end is the round whose state the scratch holds pre-step — the
	// freeze round, a sole lane's cleared round, or a re-run's cap — or
	// MaxRounds when the clock ran out (post-step state).
	end int
	// frozen reports that the autonomous run ended with a zero step, so
	// the lane's state is constant from round end onward.
	frozen bool
	// err is the lane clock's negative-step error.
	err error
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
// decomposition keeps whole (a single component, a foreign increment
// policy, a −0 reserve price).
func (a *Auction) Components() int { return len(a.laneList()) }

// remapPolicy compacts a built-in increment policy's per-pool parameters
// onto a component's pools (ascending global ids). Policies carrying no
// per-pool state pass through unchanged; CostNormalized gets its Cost
// vector gathered so that local pool j reads exactly what global pool
// pools[j] read (missing entries stay zero, which falls back to the same
// unit cost the original would use). Unknown policy implementations
// return false and keep the market whole: the analyzer cannot prove a
// foreign policy is per-pool-local.
func remapPolicy(pol IncrementPolicy, pools []int32) (IncrementPolicy, bool) {
	switch v := pol.(type) {
	case Additive:
		return v, true
	case Capped:
		return v, true
	case Proportional:
		return v, true
	case CostNormalized:
		sub := make(resource.Vector, len(pools))
		for j, g := range pools {
			if int(g) < len(v.Cost) {
				sub[j] = v.Cost[g]
			}
		}
		v.Cost = sub
		return v, true
	}
	return nil, false
}

// wholeLane is the one-lane list of a market that is not decomposed:
// identity pool and bid maps over the parent's own proxies, start prices
// and policy, so the lane's clock is Algorithm 1 on the whole market.
func (a *Auction) wholeLane() []*lane {
	c := &lane{
		pools: make([]int32, len(a.cfg.Start)),
		bids:  make([]int32, len(a.bids)),
		auc:   &Auction{bids: a.bids, proxies: a.proxies, cfg: a.cfg},
		res:   &Result{},
	}
	for g := range c.pools {
		c.pools[g] = int32(g)
	}
	for i := range c.bids {
		c.bids[i] = int32(i)
	}
	return []*lane{c}
}

// buildLanes computes the connected components of the bidder–pool graph
// and assembles one lane per component. The market stays one whole lane
// when it has fewer than two components, a policy that cannot be
// remapped, or a −0 reserve price (the whole-market clock normalizes −0
// to +0 the first time it adds a zero step; a scattered reconstruction
// that skips untouched pools would preserve the sign bit and break
// bit-identity of the formatted fingerprints).
func (a *Auction) buildLanes() []*lane {
	r := len(a.cfg.Start)
	for _, v := range a.cfg.Start {
		if v == 0 && math.Signbit(v) {
			return a.wholeLane()
		}
	}
	if _, ok := remapPolicy(a.cfg.Policy, nil); !ok {
		return a.wholeLane()
	}

	// Union the pools of each bid across all its bundles: an XOR set
	// bridges every pool set it mentions, whichever bundle wins.
	uf := make(unionFind, r)
	for g := range uf {
		uf[g] = int32(g)
	}
	touched := make([]bool, r)
	for _, px := range a.proxies {
		first := int32(-1)
		for _, sb := range px.sparse {
			for _, g := range sb.idx {
				touched[g] = true
				if first < 0 {
					first = g
				} else {
					uf.union(first, g)
				}
			}
		}
	}

	// Assign component ids in ascending smallest-pool order — the
	// deterministic lane order every later merge loop follows — and
	// gather each component's pools ascending. Pools no bid touches stay
	// out of every component: their excess demand is identically zero,
	// so the clock never moves them off the reserve price.
	compOf := make([]int32, r)
	for g := range compOf {
		compOf[g] = -1
	}
	var comps []*lane
	for g := 0; g < r; g++ {
		if !touched[g] {
			continue
		}
		root := uf.find(int32(g))
		if compOf[root] < 0 {
			compOf[root] = int32(len(comps))
			comps = append(comps, &lane{res: &Result{}})
		}
		c := comps[compOf[root]]
		c.pools = append(c.pools, int32(g))
	}
	if len(comps) < 2 {
		return a.wholeLane()
	}

	// Global pool id → local index within its component.
	localPool := make([]int32, r)
	for _, c := range comps {
		for j, g := range c.pools {
			localPool[g] = int32(j)
		}
	}

	// Every validated bid has a non-empty first bundle, so its component
	// is the one owning that bundle's first pool. Visiting bids in input
	// order keeps each lane's bid list ascending — the order that
	// preserves the whole-market run's per-pool float addition sequence.
	for i, px := range a.proxies {
		c := comps[compOf[uf.find(px.sparse[0].idx[0])]]
		c.bids = append(c.bids, int32(i))
	}

	for _, c := range comps {
		subStart := make(resource.Vector, len(c.pools))
		for j, g := range c.pools {
			subStart[j] = a.cfg.Start[g]
		}
		pol, _ := remapPolicy(a.cfg.Policy, c.pools)
		// Remap the packed bundles onto local pool ids in O(nnz): three
		// slabs a component, the (immutable) value slices shared.
		nb, nnz := 0, 0
		for _, bi := range c.bids {
			for _, sb := range a.proxies[bi].sparse {
				nb++
				nnz += len(sb.idx)
			}
		}
		bids := make([]*Bid, len(c.bids))
		proxies := make([]*Proxy, len(c.bids))
		pxSlab := make([]Proxy, len(c.bids))
		sbSlab := make([]sparseBundle, 0, nb)
		idxSlab := make([]int32, 0, nnz)
		for k, bi := range c.bids {
			bids[k] = a.bids[bi]
			lo := len(sbSlab)
			for _, sb := range a.proxies[bi].sparse {
				ilo := len(idxSlab)
				for _, g := range sb.idx {
					idxSlab = append(idxSlab, localPool[g])
				}
				sbSlab = append(sbSlab, sparseBundle{idx: idxSlab[ilo:], val: sb.val})
			}
			pxSlab[k] = Proxy{bid: bids[k], lastChoice: -1, sparse: sbSlab[lo:]}
			proxies[k] = &pxSlab[k]
		}
		c.auc = &Auction{
			bids:    bids,
			proxies: proxies,
			cfg: Config{
				Start:         subStart,
				Policy:        pol,
				Epsilon:       a.cfg.Epsilon,
				MaxRounds:     a.cfg.MaxRounds,
				RecordHistory: a.cfg.RecordHistory,
			},
		}
	}
	return comps
}

// runClock is the production round loop: Algorithm 1 with incremental
// demand revelation (see incremental.go) on one lane's vectors. Its
// arithmetic is the reference loop's, round for round; what it leaves to
// the driver is the global control flow:
//
//   - a lane that is not the sole one does not stop on its local z ≤ ε
//     test (a cleared lane can keep stepping while the clock runs for
//     others); it stops when the step vector is zero — frozen, state
//     constant from round t onward — returning (t, true, nil). A sole
//     lane's test is the global one, so it stops there: (t, false, nil);
//   - a zero step is not an error here: whether the clock stalls is a
//     global question the driver answers;
//   - with capT ≥ 0 it stops at exactly round capT right after the
//     round's demand revelation, pre-step — where Algorithm 1 stands
//     when the global stopping test passes at capT;
//   - when the rounds run out it returns (MaxRounds, false, nil) with the
//     scratch holding the post-step prices and the final round's choices,
//     Algorithm 1's non-convergent settle state.
//
// Per-round cleared bits are appended to *clearedOut when non-nil, and
// history is recorded only on uncapped runs (a capped re-run replays a
// prefix already recorded).
//
//marketlint:allocfree
func (a *Auction) runClock(res *Result, capT int, clearedOut *[]bool, sole bool) (int, bool, error) {
	p, z, choices := a.prepare()
	step := a.sc.step
	st := a.newIncrementalState()

	// Round 0 is a full evaluation: every proxy is affected by the jump
	// from "no prices" to the reserve prices, and z is built from scratch
	// in proxy order, exactly as the reference round does.
	active := a.collect(p, choices)
	for i, c := range choices {
		if c >= 0 {
			a.proxies[i].sparse[c].addInto(z)
		} else {
			res.DropRound[i] = 0
			if st.pureBuyer[i] {
				st.retired[i] = true
			}
		}
	}

	for t := 0; t < a.cfg.MaxRounds; t++ {
		if t > 0 {
			active = a.advance(st, p, choices, res, z, t, active)
		}
		if a.cfg.RecordHistory && capT < 0 {
			res.History = appendRound(res.History, t, p, z, active)
		}
		if clearedOut != nil {
			cleared := z.AllNonPositive(a.cfg.Epsilon)
			//marketlint:allow allocfree cleared-bit scratch is cached on the lane; growth is amortized across runs
			*clearedOut = append(*clearedOut, cleared)
			if cleared && sole {
				return t, false, nil
			}
		}
		if t == capT {
			return t, false, nil
		}
		a.cfg.Policy.StepInto(step, z, p)
		if !step.AllNonNegative(0) {
			//marketlint:allow allocfree error path; the run is abandoned
			return t, false, fmt.Errorf("core: policy %s produced a negative step", a.cfg.Policy.Name())
		}
		if step.MaxAbs() == 0 {
			return t, true, nil
		}
		p.AddInto(step)
		// The dirty pools for next round's re-evaluation are exactly the
		// components the step moved.
		st.dirty = st.dirty[:0]
		for r, s := range step {
			if s > 0 {
				//marketlint:allow allocfree dirty-pool scratch is cached on the Auction; growth is amortized across runs
				st.dirty = append(st.dirty, int32(r))
			}
		}
	}
	return a.cfg.MaxRounds, false, nil
}

// runAutonomous runs the lane clock to its natural end — frozen, out of
// rounds, or (sole) cleared — recording cleared bits for the driver's
// stop-round scan.
//
//marketlint:allocfree
func (c *lane) runAutonomous(sole bool) {
	c.res = c.auc.resetResult(c.res)
	c.cleared = c.cleared[:0]
	c.end, c.frozen, c.err = c.auc.runClock(c.res, -1, &c.cleared, sole)
}

// rerunCapped deterministically replays the lane clock to exactly round
// capT: identical arithmetic, so identical states (and no error the
// autonomous run did not already meet past capT), with the scratch left
// holding round capT's prices and choices pre-step.
//
//marketlint:allocfree
func (c *lane) rerunCapped(capT int) {
	c.res = c.auc.resetResult(c.res)
	c.end, c.frozen, _ = c.auc.runClock(c.res, capT, nil, false)
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

// scatterState assembles the global settle state from the lane
// scratches: prices scattered over the reserve vector (pools outside
// every lane never move off it), choices and drop rounds scattered by
// global bid index, into the parent's own scratch.
//
//marketlint:allocfree
func (a *Auction) scatterState(lanes []*lane, res *Result) (resource.Vector, []int) {
	p, _, choices := a.prepare()
	for _, c := range lanes {
		sp := c.auc.sc.p
		sch := c.auc.sc.choices
		for j, g := range c.pools {
			p[g] = sp[j]
		}
		for k, bi := range c.bids {
			choices[bi] = sch[k]
			res.DropRound[bi] = c.res.DropRound[k]
		}
	}
	return p, choices
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
		if i >= len(c.res.History) {
			i = len(c.res.History) - 1
		}
		src := &c.res.History[i]
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
	for _, c := range lanes {
		if c.err != nil {
			return nil, c.err
		}
	}
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
			return nil, fmt.Errorf("core: policy %s stalled with positive excess demand at round %d", a.cfg.Policy.Name(), last)
		}
		// At least one lane stepped through every round and the global
		// stopping test never passed: the clock runs out of rounds and
		// settles its post-step state.
		if a.cfg.RecordHistory {
			a.mergeHistory(lanes, res, a.cfg.MaxRounds)
		}
		p, choices := a.scatterState(lanes, res)
		res.Converged = false
		res.Rounds = a.cfg.MaxRounds
		a.settle(res, p, choices)
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
	p, choices := a.scatterState(lanes, res)
	res.Converged = true
	res.Rounds = T + 1
	a.settle(res, p, choices)
	return res, nil
}

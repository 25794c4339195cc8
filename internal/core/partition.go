package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"clustermarket/internal/resource"
)

// This file implements the parallel sub-market decomposition of the
// clock auction (ROADMAP item 3). The paper's planet of 100+ clusters
// with mostly-regional bidding means the bidder–pool graph — bids on one
// side, resource pools on the other, an edge where a bundle has a
// non-zero component — usually splits into many small connected
// components. Pools in different components never share a bidder, and a
// bid's proxy only ever reads the prices of the pools its bundles touch,
// so the merged clock's dynamics factor exactly across components:
//
//   - Every IncrementPolicy is per-pool-local (StepInto writes dst[i]
//     from z[i], p[i] and per-pool parameters only), so the price path of
//     a component's pools depends only on that component's excess demand.
//   - Excess demand on a component's pools is summed from that
//     component's proxies alone, and the sub-market keeps them in the
//     same ascending order, so each pool sees the identical float
//     addition sequence the merged rebuild performs (addition is not
//     associative; order is the contract).
//   - The pool remap is order-preserving (ascending global index →
//     ascending local index), so within-bundle sparse iteration order is
//     unchanged too.
//
// The only cross-component coupling is control flow:
//
//   - The stopping test z(t) ≤ ε is a global conjunction. With ε > 0 a
//     component can be cleared (z ≤ ε) yet unfrozen (z ∈ (0, ε] still
//     steps while some other component keeps the merged clock running),
//     so each component clock runs until its step vector is zero
//     ("frozen", after which its state is constant) while recording a
//     per-round cleared bit; the global stop round T is the first round
//     at which every component was cleared, and any component that froze
//     after T is deterministically re-run capped at exactly T — the same
//     arithmetic replayed, stopping pre-step as the merged loop does.
//   - The negative-step and stall errors are global vector tests. A
//     component clock that errors, or a market whose components all
//     freeze without a common cleared round (the merged clock's stall),
//     falls back to the merged single-clock run, which reproduces the
//     exact merged behavior — error or not — by construction.
//
// Settlement reuses the original auction's settle() against the scattered
// global price vector and choices, so payments are the same sparse dot
// products over the same global prices, bit for bit. The differential
// tests enforce dense ≡ incremental ≡ partitioned equality on every
// Result field.

// PartitionMode selects whether Run decomposes the market into
// independent sub-markets.
type PartitionMode int

const (
	// PartitionAuto, the zero value and the default, decomposes the
	// market when the bidder–pool graph has two or more connected
	// components and the increment policy is one of the four built-ins
	// (whose per-pool parameters can be remapped onto a component's
	// pools). Single-component markets, unknown policies, and component
	// errors all retain the merged single-clock run.
	PartitionAuto PartitionMode = iota
	// PartitionOff forces the merged single-clock run.
	PartitionOff
)

func (m PartitionMode) String() string {
	switch m {
	case PartitionAuto:
		return "auto"
	case PartitionOff:
		return "off"
	default:
		return fmt.Sprintf("PartitionMode(%d)", int(m))
	}
}

// subMarket is one connected component of the bidder–pool graph: an
// ascending slice of global pool ids, the ascending global indices of
// the bids touching them, and a private Auction over the compacted
// vectors whose scratch, incremental state, and Result are recycled
// across runs exactly like the parent's.
type subMarket struct {
	// pools holds the component's global pool ids in ascending order;
	// local pool j is global pool pools[j].
	pools []int32
	// bids holds the component's global bid indices in ascending order;
	// local bid k is global bid bids[k].
	bids []int32
	// auc runs the component's clock. Its bids are the original *Bid
	// pointers (limits and classes are remap-invariant); its proxies
	// carry index-remapped sparse bundles sharing the original value
	// slices.
	auc *Auction
	// res receives the component clock's DropRound bookkeeping and
	// per-round history snapshots; recycled across runs.
	res *Result
	// cleared[t] records whether the component's excess demand passed
	// z ≤ ε at round t of the autonomous run; recycled across runs.
	cleared []bool
	// end is the last round whose state the autonomous run reached:
	// the freeze round, or MaxRounds when the clock ran out.
	end int
	// frozen reports that the autonomous run ended with a zero step, so
	// the component's state is constant from round end onward.
	frozen bool
	// err is the component clock's negative-step or stall error; any
	// non-nil err sends the whole run down the merged fallback.
	err error
}

// partitionState is the cached decomposition of one Auction.
type partitionState struct {
	comps []*subMarket
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

// partition returns the auction's cached sub-market decomposition, or
// nil when the merged single-clock path must run. The decision and the
// sub-markets are built once per Auction — bids are frozen after
// NewAuction — and reused across runs.
//
//marketlint:allocfree
func (a *Auction) partition() *partitionState {
	if !a.partBuilt {
		a.partBuilt = true
		if a.cfg.Partition != PartitionOff {
			//marketlint:allow allocfree one-time decomposition build, cached on the Auction across runs
			a.part = a.buildPartition()
		}
	}
	return a.part
}

// Components returns the number of independent sub-markets the
// partitioned path clears concurrently, or 1 when the merged
// single-clock run is in effect (partitioning off, a single connected
// component, or an increment policy the decomposition cannot remap).
func (a *Auction) Components() int {
	if ps := a.partition(); ps != nil {
		return len(ps.comps)
	}
	return 1
}

// remapPolicy compacts a built-in increment policy's per-pool parameters
// onto a component's pools (ascending global ids). Policies carrying no
// per-pool state pass through unchanged; CostNormalized gets its Cost
// vector gathered so that local pool j reads exactly what global pool
// pools[j] read (missing entries stay zero, which falls back to the same
// unit cost the original would use). Unknown policy implementations
// return false and keep the merged path: the analyzer cannot prove a
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

// buildPartition computes the connected components of the bidder–pool
// graph and assembles one subMarket per component. It returns nil when
// the merged path must run: fewer than two components, a policy that
// cannot be remapped, or a −0 reserve price (the merged clock normalizes
// −0 to +0 the first time it adds a zero step; a scattered
// reconstruction would preserve the sign bit and break bit-identity of
// the formatted fingerprints).
func (a *Auction) buildPartition() *partitionState {
	r := a.reg.Len()
	for _, v := range a.cfg.Start {
		if v == 0 && math.Signbit(v) {
			return nil
		}
	}
	if _, ok := remapPolicy(a.cfg.Policy, nil); !ok {
		return nil
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
	// deterministic component order every later merge loop follows —
	// and gather each component's pools ascending. Pools no bid touches
	// stay out of every component: their excess demand is identically
	// zero, so the merged clock never moves them off the reserve price.
	compOf := make([]int32, r)
	for g := range compOf {
		compOf[g] = -1
	}
	var comps []*subMarket
	for g := 0; g < r; g++ {
		if !touched[g] {
			continue
		}
		root := uf.find(int32(g))
		if compOf[root] < 0 {
			compOf[root] = int32(len(comps))
			comps = append(comps, &subMarket{res: &Result{}})
		}
		c := comps[compOf[root]]
		c.pools = append(c.pools, int32(g))
	}
	if len(comps) < 2 {
		return nil
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
	// order keeps each component's bid list ascending — the order that
	// preserves the merged run's per-pool float addition sequence.
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
				Parallel:      a.cfg.Parallel,
				RecordHistory: a.cfg.RecordHistory,
				Engine:        a.cfg.Engine,
				Partition:     PartitionOff,
			},
		}
	}
	return &partitionState{comps: comps}
}

// runClock drives one component's clock with the merged loop's exact
// round structure on the compacted vectors, on either engine. It differs
// from the merged loop only in control flow, never in arithmetic:
//
//   - it does not stop on the local z ≤ ε test (a cleared component can
//     keep stepping while the merged clock runs for others); instead it
//     stops when the step vector is zero — frozen, state constant from
//     round t onward — returning (t, true, nil);
//   - a local zero step is not an error: whether the merged clock stalls
//     is a global question the driver answers;
//   - with capT ≥ 0 it stops at exactly round capT right after the
//     round's demand revelation, pre-step — mirroring where the merged
//     loop stands when the global stopping test passes at capT;
//   - when the rounds run out it returns (MaxRounds, false, nil) with the
//     scratch holding the post-step prices and the final round's choices,
//     mirroring the merged loop's non-convergent settle state.
//
// Per-round cleared bits are appended to *clearedOut when non-nil, and
// history is recorded only on uncapped runs (a capped re-run replays a
// prefix already recorded).
//
//marketlint:allocfree
func (a *Auction) runClock(res *Result, capT int, clearedOut *[]bool) (int, bool, error) {
	p, z, choices := a.prepare()
	step := a.sc.step
	dense := a.cfg.Engine == EngineDense
	var st *incrementalState
	if !dense {
		st = a.newIncrementalState()
	}

	// Round 0 is a full evaluation on both engines: z is built from
	// scratch in proxy order, exactly as the merged round 0 does.
	active := a.collect(p, choices)
	for i, c := range choices {
		if c >= 0 {
			a.proxies[i].sparse[c].addInto(z)
		} else {
			res.DropRound[i] = 0
			if st != nil && st.pureBuyer[i] {
				st.retired[i] = true
			}
		}
	}

	for t := 0; t < a.cfg.MaxRounds; t++ {
		if t > 0 {
			if dense {
				active = a.collect(p, choices)
				z.SetZero()
				for i, c := range choices {
					if c >= 0 {
						a.proxies[i].sparse[c].addInto(z)
						res.DropRound[i] = -1
					} else if res.DropRound[i] < 0 {
						res.DropRound[i] = t
					}
				}
			} else {
				active = a.advance(st, p, choices, res, z, t, active)
			}
		}
		if a.cfg.RecordHistory && capT < 0 {
			res.History = appendRound(res.History, t, p, z, active)
		}
		if clearedOut != nil {
			//marketlint:allow allocfree cleared-bit scratch is cached on the subMarket; growth is amortized across runs
			*clearedOut = append(*clearedOut, z.AllNonPositive(a.cfg.Epsilon))
		}
		if t == capT {
			return t, false, nil
		}
		a.cfg.Policy.StepInto(step, z, p)
		if !step.AllNonNegative(0) {
			//marketlint:allow allocfree error path; the run falls back to the merged clock
			return t, false, fmt.Errorf("core: policy %s produced a negative step", a.cfg.Policy.Name())
		}
		if step.MaxAbs() == 0 {
			return t, true, nil
		}
		p.AddInto(step)
		if !dense {
			st.dirty = st.dirty[:0]
			for r, s := range step {
				if s > 0 {
					//marketlint:allow allocfree dirty-pool scratch is cached on the Auction; growth is amortized across runs
					st.dirty = append(st.dirty, int32(r))
				}
			}
		}
	}
	return a.cfg.MaxRounds, false, nil
}

// runAutonomous runs the component clock to its natural end — frozen or
// out of rounds — recording cleared bits for the driver's global
// stop-round scan.
//
//marketlint:allocfree
func (c *subMarket) runAutonomous() {
	c.res = c.auc.resetResult(c.res)
	c.cleared = c.cleared[:0]
	c.end, c.frozen, c.err = c.auc.runClock(c.res, -1, &c.cleared)
}

// rerunCapped deterministically replays the component clock to exactly
// round capT: identical arithmetic, so identical states, with the scratch
// left holding round capT's prices and choices pre-step.
//
//marketlint:allocfree
func (c *subMarket) rerunCapped(capT int) {
	c.res = c.auc.resetResult(c.res)
	c.end, c.frozen, c.err = c.auc.runClock(c.res, capT, nil)
}

// runAll drives every component clock; under parallel it fans the
// components out over GOMAXPROCS workers — results are bit-identical to
// the serial sweep because the components share no state at all.
//
//marketlint:allocfree
func (ps *partitionState) runAll(parallel bool) {
	if !parallel {
		for _, c := range ps.comps {
			c.runAutonomous()
		}
		return
	}
	//marketlint:allow allocfree opt-in parallel fan-out; spawn cost is amortized over whole component clocks
	ps.runAllParallel()
}

// runAllParallel is runAll's goroutine fan-out: GOMAXPROCS workers pull
// components off a shared atomic cursor.
func (ps *partitionState) runAllParallel() {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ps.comps) {
		workers = len(ps.comps)
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(ps.comps) {
					return
				}
				ps.comps[i].runAutonomous()
			}
		}()
	}
	wg.Wait()
}

// findStopRound computes T, the merged clock's stop round: the first
// round at which every component's excess demand passed z ≤ ε. A frozen
// component's state — and so its cleared bit — is constant beyond its
// freeze round, which the min-index clamp encodes. The scan is bounded
// by the longest component run, past which no state changes; ok is
// false when no common cleared round exists (the merged clock stalls or
// runs out of rounds).
//
//marketlint:allocfree
func (ps *partitionState) findStopRound() (int, bool) {
	limit := 0
	for _, c := range ps.comps {
		if len(c.cleared) > limit {
			limit = len(c.cleared)
		}
	}
	for t := 0; t < limit; t++ {
		all := true
		for _, c := range ps.comps {
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

// scatterState assembles the global settle state from the component
// scratches: prices scattered over the reserve vector (pools outside
// every component never move off it), choices and drop rounds scattered
// by global bid index. The parent's own scratch is the destination, so
// the subsequent settle call reads exactly what a merged run would have
// left there.
//
//marketlint:allocfree
func (a *Auction) scatterState(ps *partitionState, res *Result) (resource.Vector, []int) {
	p, _, choices := a.prepare()
	for _, c := range ps.comps {
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

// mergeHistory reconstructs the merged run's per-round history from the
// component histories, in global pool order: round t scatters each
// component's round min(t, end) snapshot — frozen components repeat
// their final state — over the reserve prices and a zero excess-demand
// vector, summing active-bidder counts.
//
//marketlint:allocfree
func (a *Auction) mergeHistory(ps *partitionState, res *Result, rounds int) {
	for t := 0; t < rounds; t++ {
		res.History = ps.appendMergedRound(res.History, t, a.cfg.Start)
	}
}

// appendMergedRound records one merged history snapshot, recycling the
// vectors of a Round beyond len(h) when RunReusing supplied one — the
// scatter form of appendRound.
//
//marketlint:allocfree
func (ps *partitionState) appendMergedRound(h []Round, t int, start resource.Vector) []Round {
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
	for _, c := range ps.comps {
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

// runPartitioned is the decomposition driver: autonomous component
// clocks, the global stop-round scan, capped re-runs for components that
// froze late, and the in-order merge. Every path either reproduces the
// merged run's outcome bit for bit or hands the run to the merged clock
// itself.
//
//marketlint:allocfree
func (a *Auction) runPartitioned(ps *partitionState, res *Result) (*Result, error) {
	ps.runAll(a.cfg.Parallel)
	for _, c := range ps.comps {
		if c.err != nil {
			// A component clock hit a negative step or a local stall.
			// The merged loop's error tests are global-vector checks —
			// it may error at a different round, or converge first and
			// not error at all — so reproduce its exact behavior by
			// running it.
			return a.runMerged(res)
		}
	}
	T, ok := ps.findStopRound()
	if !ok {
		allFrozen := true
		for _, c := range ps.comps {
			if !c.frozen {
				allFrozen = false
				break
			}
		}
		if allFrozen {
			// Every component froze but no round has them all cleared:
			// the merged clock stalls with positive excess demand. Let
			// it produce that exact error.
			return a.runMerged(res)
		}
		// At least one component stepped through every round and the
		// global stopping test never passed: the merged clock runs out
		// of rounds and settles its post-step state.
		if a.cfg.RecordHistory {
			a.mergeHistory(ps, res, a.cfg.MaxRounds)
		}
		p, choices := a.scatterState(ps, res)
		res.Converged = false
		res.Rounds = a.cfg.MaxRounds
		a.settle(res, p, choices)
		return res, ErrNoConvergence
	}
	if a.cfg.RecordHistory {
		a.mergeHistory(ps, res, T+1)
	}
	for _, c := range ps.comps {
		if c.frozen && c.end <= T {
			continue
		}
		// The component froze after T (or never froze): its scratch
		// holds a later state than the merged clock ever reached.
		// Replay it to exactly round T.
		c.rerunCapped(T)
		if c.err != nil {
			// Unreachable — the autonomous run already passed these
			// rounds error-free — but the fallback is always correct.
			return a.runMerged(res)
		}
	}
	p, choices := a.scatterState(ps, res)
	res.Converged = true
	res.Rounds = T + 1
	a.settle(res, p, choices)
	return res, nil
}

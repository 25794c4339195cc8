package core

import "clustermarket/internal/resource"

// This file implements incremental demand revelation, what makes the
// production round loop (runClock, partition.go) the planet-scale fast
// path of Algorithm 1. The reference loop re-scores every proxy every
// round, but a round's price step only raises the over-demanded pools: a
// proxy none of whose bundles touches a raised pool sees identical
// bundle costs and provably repeats its previous choice. The clock
// therefore maintains an inverted index from pool to the proxies
// touching it, derives the dirty-pool set from the step's positive
// components, re-evaluates only the affected proxies, and refreshes only
// the excess-demand components those proxies' old and new bundles touch.
//
// Determinism contract: results are bit-identical to ReferenceRun.
// Excess demand is never updated by adding/subtracting deltas — floating
// point addition is not associative, so delta updates would drift in the
// low bits and the two clocks would diverge. Instead each stale pool's
// component is re-summed from zero over the pool's proxy list in
// ascending proxy order, which replays the exact addition sequence the
// reference rebuild performs for that pool (it visits proxies in input
// order and sparse addInto touches only non-zero components).
// Components of untouched pools are carried over unchanged, which is
// likewise exactly what the reference re-sum would reproduce for them.

// incrementalIndex is the immutable, bids-derived half of the clock:
// the inverted pool→proxies index and the bidder classes. It is built
// once per Auction (bids are frozen after NewAuction) and shared across
// Run calls.
type incrementalIndex struct {
	// poolProxies[r] lists, in ascending order, the proxies any of whose
	// bundles has a non-zero component in pool r.
	poolProxies [][]int32
	pureBuyer   []bool
}

// buildIncrementalIndex makes one pass over the sparse bundles; seen
// dedups pools within a proxy so each proxy appears at most once per
// pool list, and iterating proxies in input order keeps every list
// ascending — the order the determinism contract depends on.
func (a *Auction) buildIncrementalIndex() *incrementalIndex {
	ix := &incrementalIndex{
		poolProxies: make([][]int32, len(a.cfg.Start)),
		pureBuyer:   make([]bool, len(a.proxies)),
	}
	seen := make([]int, len(a.cfg.Start))
	for i, px := range a.proxies {
		stamp := i + 1
		for _, sb := range px.sparse {
			for _, r := range sb.idx {
				if seen[r] != stamp {
					seen[r] = stamp
					ix.poolProxies[r] = append(ix.poolProxies[r], int32(i))
				}
			}
		}
		ix.pureBuyer[i] = classOf(px.sparse) == PureBuyer
	}
	return ix
}

// incrementalState carries the per-run working set of incremental
// revelation: the shared index plus epoch-stamped scratch buffers, so
// the round loop allocates nothing.
type incrementalState struct {
	*incrementalIndex
	// retired marks pure buyers that have been priced out of every
	// bundle. Price steps are nonnegative and a pure buyer's bundle costs
	// are nondecreasing in prices, so its surplus can only shrink: once
	// priced out it can never re-enter and is dropped from the index
	// walk permanently. Sellers and traders carry negative components —
	// rising prices improve their receipts — so they stay evaluated.
	retired []bool

	// Epoch-stamped dedup marks: a mark equal to the current epoch means
	// "already gathered this round", so clearing between rounds is O(1).
	epoch     int32
	proxyMark []int32
	poolMark  []int32

	// Reused gather buffers.
	affected   []int32
	stale      []int32
	dirty      []int32
	newChoices []int
}

// newIncrementalState returns the auction's cached working set, reset
// for a fresh run. The epoch-stamped marks survive across runs (a mark
// below the current epoch already reads as "unseen"), so a reset only
// clears the retirement flags and truncates the gather buffers — no
// allocation in the steady state.
//
//marketlint:allocfree
func (a *Auction) newIncrementalState() *incrementalState {
	if a.incIndex == nil {
		//marketlint:allow allocfree one-time index build, cached on the Auction across runs
		a.incIndex = a.buildIncrementalIndex()
	}
	st := a.incState
	if st == nil {
		//marketlint:allow allocfree one-time state construction, cached on the Auction across runs
		st = &incrementalState{
			incrementalIndex: a.incIndex,
			retired:          make([]bool, len(a.proxies)),
			proxyMark:        make([]int32, len(a.proxies)),
			poolMark:         make([]int32, len(a.cfg.Start)),
		}
		a.incState = st
		return st
	}
	for i := range st.retired {
		st.retired[i] = false
	}
	st.affected = st.affected[:0]
	st.stale = st.stale[:0]
	st.dirty = st.dirty[:0]
	// Guard the epoch stamps against int32 wraparound across very many
	// reuses: restart the epoch clock with cleared marks.
	if st.epoch > 1<<30 {
		st.epoch = 0
		for i := range st.proxyMark {
			st.proxyMark[i] = 0
		}
		for i := range st.poolMark {
			st.poolMark[i] = 0
		}
	}
	return st
}

// markStalePool records pool r for excess-demand recomputation, at most
// once per round.
//
//marketlint:allocfree
func (st *incrementalState) markStalePool(r int32) {
	if st.poolMark[r] != st.epoch {
		st.poolMark[r] = st.epoch
		st.stale = append(st.stale, r)
	}
}

// advance applies one round of incremental demand revelation at round t:
// gather the proxies touching a dirty pool, re-evaluate them, and
// recompute the excess-demand components their changed choices touch. It
// returns the updated active-bidder count.
//
//marketlint:allocfree
func (a *Auction) advance(st *incrementalState, p resource.Vector, choices []int, res *Result, z resource.Vector, t, active int) int {
	st.epoch++
	st.affected = st.affected[:0]
	for _, r := range st.dirty {
		for _, i := range st.poolProxies[r] {
			if st.retired[i] || st.proxyMark[i] == st.epoch {
				continue
			}
			st.proxyMark[i] = st.epoch
			st.affected = append(st.affected, i)
		}
	}

	st.newChoices = a.collectSubset(p, st.affected, st.newChoices)

	st.stale = st.stale[:0]
	for k, i := range st.affected {
		old, c := choices[i], st.newChoices[k]
		if c == old {
			continue
		}
		choices[i] = c
		if old >= 0 {
			for _, r := range a.proxies[i].sparse[old].idx {
				st.markStalePool(r)
			}
		}
		if c >= 0 {
			for _, r := range a.proxies[i].sparse[c].idx {
				st.markStalePool(r)
			}
		}
		switch {
		case c < 0:
			// Dropped out this round.
			active--
			res.DropRound[i] = t
			if st.pureBuyer[i] {
				st.retired[i] = true
			}
		case old < 0:
			// Re-entered: rising prices lifted a seller/trader bundle
			// back over its limit. Clear the stale drop round so the
			// diagnostic matches History.ActiveBidders.
			active++
			res.DropRound[i] = -1
		}
	}

	// When a large share of the pools went stale (the clock's opening
	// rounds, before demand localizes), a full rebuild in input order is
	// cheaper than per-pool re-summation — and is trivially bit-identical,
	// being the reference order itself.
	if len(st.stale)*8 > len(st.poolProxies) {
		for r := range z {
			z[r] = 0
		}
		for i, c := range choices {
			if c >= 0 {
				a.proxies[i].sparse[c].addInto(z)
			}
		}
		return active
	}
	// Re-sum each stale component from zero over the pool's proxy list in
	// ascending order — the reference rebuild's exact addition sequence for
	// that pool (see the determinism contract above).
	for _, r := range st.stale {
		var sum float64
		for _, i := range st.poolProxies[r] {
			if c := choices[i]; c >= 0 {
				if v, ok := a.proxies[i].sparse[c].valueAt(r); ok {
					sum += v
				}
			}
		}
		z[r] = sum
	}
	return active
}

// collectSubset evaluates the affected proxies at prices p, writing each
// result to out aligned with affected (out is grown as needed and
// returned). It is the affected-subset form of collect.
//
//marketlint:allocfree
func (a *Auction) collectSubset(p resource.Vector, affected []int32, out []int) []int {
	if cap(out) < len(affected) {
		out = make([]int, len(affected))
	}
	out = out[:len(affected)]
	for k, i := range affected {
		out[k] = a.proxies[i].choose(p)
	}
	return out
}

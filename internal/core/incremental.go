package core

import "math"

// This file implements incremental demand revelation, what makes the
// production round loop (runClock, partition.go) the planet-scale fast
// path of Algorithm 1. The reference loop re-prices every bundle and
// re-scores every proxy every round, but a round's price step only raises
// the over-demanded pools: a bundle touching no raised pool costs exactly
// what it did, and a proxy none of whose bundles was re-priced provably
// repeats its previous choice. Each lane therefore owns a flat,
// pointer-free kernel — its bids' rows copied once, pool ids remapped,
// plus a pool→bundle index — and on it a round re-prices only the bundles
// on a moved pool, re-chooses only their owners from the cached costs,
// and refreshes only the excess-demand components those owners' old and
// new bundles touch.
//
// Determinism contract: results are bit-identical to ReferenceRun.
//
//   - A cached cost is the same from-zero dot over the bundle's ascending
//     rows the reference computes, at prices that have not changed on any
//     of those rows since; the choice scan over the cached costs is the
//     reference's (cost > limit skipped, strictly larger surplus wins).
//   - Excess demand is never updated by adding/subtracting deltas —
//     floating point addition is not associative, so delta updates would
//     drift in the low bits. Each stale pool's component is re-summed from
//     zero over the pool's bundle list, which is in ascending proxy order
//     and adds a proxy's value only for its chosen bundle: the exact
//     addition sequence of the reference rebuild for that pool. When an
//     eighth of the pools are stale the whole vector is rebuilt in proxy
//     order, which is the reference order itself; untouched components
//     carry over, which is what the reference re-sum would reproduce.
//   - A priced-out pure buyer is retired: price steps are nonnegative and
//     its bundle costs nondecreasing in prices, so it can never re-enter
//     and its choice is −1 forever — it contributes to no sum. Its entries
//     are dropped, order preserved, from the pool lists and the proxy list
//     by the walk that meets them. Sellers and traders carry negative components (rising
//     prices improve their receipts), so they stay listed and evaluated.

// kernel is the immutable, bids-derived half of a lane, built once
// (bids are frozen after NewAuction) and shared by every run. Bundles are
// numbered proxy-major, so ascending bundle order is ascending bid order.
type kernel struct {
	first []int32   // proxy k owns bundles first[k] .. first[k+1]-1
	row   []int32   // bundle b owns rows row[b] .. row[b+1]-1
	idx   []int32   // row → lane-local pool, ascending within a bundle
	val   []float64 // row → quantity
	lim   []float64 // bundle → its limit (Bid.LimitFor, resolved once)
	owner []int32   // bundle → proxy
	buyer []bool    // proxy → pure buyer
	at    []int32   // pool r's list of bundles starts at at[r], ends before at[r+1]
}

// ClockStats counts the work of one Run's round loops, summed over its
// lanes: whether the incremental reductions engaged is read off these,
// not inferred from timings.
type ClockStats struct {
	// Lanes is the number of component lanes, LaneRounds the rounds
	// they ran, and Held how many of them ran out of rounds.
	Lanes, LaneRounds, Held int
	// Repriced bundles and Rechosen proxies past round 0, and how many of
	// those proxies Switched bundle.
	Repriced, Rechosen, Switched int
	// Rebuilds counts rounds that rebuilt z whole, Resums single pools
	// re-summed in the other rounds.
	Rebuilds, Resums int
}

// Add accumulates another run's (or lane's) counters.
//
//marketlint:allocfree
func (s *ClockStats) Add(o ClockStats) {
	s.Lanes += o.Lanes
	s.LaneRounds += o.LaneRounds
	s.Held += o.Held
	s.Repriced += o.Repriced
	s.Rechosen += o.Rechosen
	s.Switched += o.Switched
	s.Rebuilds += o.Rebuilds
	s.Resums += o.Resums
}

// carve cuts the next n elements off a slab.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// newLane builds the lane of bids (ascending global indices) over pools
// (ascending global ids; local maps a global id back to its position):
// the kernel in one pass over the bids' rows, and every scratch vector of
// the round loop, carved from one slab per element type.
func (a *Auction) newLane(pools, bids, local []int32, cfg Config) *lane {
	nP, nB, nnz, r := len(bids), 0, 0, len(pools)
	for _, bi := range bids {
		rw := a.rowsOf(int(bi))
		nB += int(rw.n)
		nnz += len(rw.val)
	}
	i32 := make([]int32, 6*nP+3*nB+2*nnz+5*r+3)
	f64 := make([]float64, 2*nnz+2*nB+3*r)
	flags := make([]bool, 2*nP)
	c := &lane{pools: pools, bids: bids, cfg: cfg}
	c.first, c.row, c.at = carve(&i32, nP+1), carve(&i32, nB+1), carve(&i32, r+1)
	c.idx, c.liveB = carve(&i32, nnz), carve(&i32, nnz)
	c.owner, c.bundleMark = carve(&i32, nB), carve(&i32, nB)
	c.chosen, c.drop, c.liveP = carve(&i32, nP), carve(&i32, nP), carve(&i32, nP)
	c.proxyMark, c.affected = carve(&i32, nP), carve(&i32, nP)[:0]
	c.liveEnd, c.poolMark = carve(&i32, r), carve(&i32, r)
	c.stale, c.dirty = carve(&i32, r)[:0], carve(&i32, r)[:0]
	c.val, c.liveV = carve(&f64, nnz), carve(&f64, nnz)
	c.lim, c.cost = carve(&f64, nB), carve(&f64, nB)
	c.p, c.z, c.step = carve(&f64, r), carve(&f64, r), carve(&f64, r)
	c.buyer, c.retired = carve(&flags, nP), carve(&flags, nP)

	b, j := int32(0), int32(0)
	for k, bi := range bids {
		bid, rw := a.bids[bi], a.rowsOf(int(bi))
		c.first[k], c.buyer[k] = b, true
		for i := 0; i < int(rw.n); i++ {
			sb := rw.bundle(i)
			c.row[b], c.lim[b], c.owner[b] = j, bid.LimitFor(i), int32(k)
			for x, g := range sb.idx {
				c.idx[j], c.val[j] = local[g], sb.val[x]
				c.at[local[g]+1]++
				if sb.val[x] < 0 {
					c.buyer[k] = false
				}
				j++
			}
			b++
		}
	}
	c.first[nP], c.row[nB] = b, j
	for g := 0; g < r; g++ {
		c.at[g+1] += c.at[g]
	}
	return c
}

// reset readies the scratch for a run from the reserve prices: nobody
// retired, no history or counters, and the pool→bundle index laid out
// whole — pool r's list liveB/liveV[at[r]:liveEnd[r]] holds the bundles
// touching r with their quantity there, filled bundle by bundle so each
// list is ascending. The epoch-stamped marks survive across runs (a
// mark below the current epoch reads as "unseen").
//
//marketlint:allocfree
func (c *lane) reset() {
	copy(c.p, c.cfg.Start)
	c.z.SetZero()
	clear(c.retired)
	for k := range c.drop {
		c.drop[k] = -1
	}
	copy(c.liveEnd, c.at)
	for b := range c.owner {
		for j := c.row[b]; j < c.row[b+1]; j++ {
			e := c.liveEnd[c.idx[j]]
			c.liveB[e], c.liveV[e] = int32(b), c.val[j]
			c.liveEnd[c.idx[j]]++
		}
	}
	c.liveP = c.liveP[:cap(c.liveP)]
	for k := range c.liveP {
		c.liveP[k] = int32(k)
	}
	c.hist, c.stats = c.hist[:0], ClockStats{}
	// Guard the epoch stamps against int32 wraparound across very many
	// reuses: restart the epoch clock with cleared marks.
	if c.epoch > 1<<30 {
		c.epoch = 0
		clear(c.bundleMark)
		clear(c.proxyMark)
		clear(c.poolMark)
	}
}

// price computes bundle b's cost qᵀp from zero over its ascending rows —
// sparseBundle.dot's arithmetic on the lane's slabs.
//
//marketlint:allocfree
func (c *lane) price(b int32) float64 {
	lo, hi, p := c.row[b], c.row[b+1], c.p
	val, sum := c.val[lo:hi], 0.0
	for j, r := range c.idx[lo:hi] {
		sum += val[j] * p[r]
	}
	return sum
}

// demand adds bundle b into the excess-demand vector.
//
//marketlint:allocfree
func (c *lane) demand(b int32) {
	lo, hi, z := c.row[b], c.row[b+1], c.z
	val := c.val[lo:hi]
	for j, r := range c.idx[lo:hi] {
		z[r] += val[j]
	}
}

// choose returns the bundle proxy k demands at the cached costs, or −1
// when priced out: Proxy.choose's scan, bundle for bundle.
//
//marketlint:allocfree
func (c *lane) choose(k int32) int32 {
	best, bestSurplus := int32(-1), math.Inf(-1)
	for b, hi := c.first[k], c.first[k+1]; b < hi; b++ {
		cost, lim := c.cost[b], c.lim[b]
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = b, s
		}
	}
	return best
}

// open is round 0, a full evaluation: every bundle is priced at the
// reserve prices, every proxy chooses, and z is built from scratch in
// proxy order, exactly as the reference round does. It returns the
// active-bidder count.
//
//marketlint:allocfree
func (c *lane) open() int {
	for b := range c.cost {
		c.cost[b] = c.price(int32(b))
	}
	active := 0
	for k := range c.chosen {
		b := c.choose(int32(k))
		c.chosen[k] = b
		if b >= 0 {
			active++
			c.demand(b)
		} else {
			c.drop[k] = 0
			c.retired[k] = c.buyer[k]
		}
	}
	return active
}

// markStale records the pools of bundle b (none when b is −1) for
// excess-demand recomputation, each at most once per round, and reports
// whether enough are stale that the round rebuilds z whole.
//
//marketlint:allocfree
func (c *lane) markStale(b int32) bool {
	if b >= 0 {
		for _, r := range c.idx[c.row[b]:c.row[b+1]] {
			if c.poolMark[r] != c.epoch {
				c.poolMark[r] = c.epoch
				c.stale = append(c.stale, r)
			}
		}
	}
	return len(c.stale)*8 > len(c.at)-1
}

// advance applies one round of incremental demand revelation at round t:
// re-price the live bundles on a dirty pool, re-choose their owners, and
// recompute the excess-demand components the changed choices touch. It
// returns the updated active-bidder count.
//
//marketlint:allocfree
func (c *lane) advance(t, active int) int {
	c.epoch++
	c.affected = c.affected[:0]
	for _, r := range c.dirty {
		lo, w := c.at[r], 0
		list, qty := c.liveB[lo:c.liveEnd[r]], c.liveV[lo:c.liveEnd[r]]
		for e, b := range list {
			k := c.owner[b]
			if c.retired[k] {
				continue // dropped from the list: w stays behind
			}
			if w < e {
				list[w], qty[w] = b, qty[e]
			}
			w++
			if c.bundleMark[b] == c.epoch {
				continue
			}
			c.bundleMark[b] = c.epoch
			c.cost[b] = c.price(b)
			c.stats.Repriced++
			if c.proxyMark[k] != c.epoch {
				c.proxyMark[k] = c.epoch
				c.affected = append(c.affected, k)
			}
		}
		c.liveEnd[r] = lo + int32(w)
	}

	// Stale pools are listed only until the whole-rebuild rule is met:
	// the count only grows, so stopping there decides the same branch.
	c.stale = c.stale[:0]
	c.stats.Rechosen += len(c.affected)
	rebuild := false
	for _, k := range c.affected {
		old, b := c.chosen[k], c.choose(k)
		if b == old {
			continue
		}
		c.chosen[k] = b
		c.stats.Switched++
		rebuild = rebuild || c.markStale(old) || c.markStale(b)
		switch {
		case b < 0:
			// Dropped out this round.
			active--
			c.drop[k] = int32(t)
			c.retired[k] = c.buyer[k]
		case old < 0:
			// Re-entered: rising prices lifted a seller/trader bundle
			// back over its limit. Clear the stale drop round so the
			// diagnostic matches History.ActiveBidders.
			active++
			c.drop[k] = -1
		}
	}

	// When a large share of the pools went stale (the clock's opening
	// rounds, before demand localizes), a full rebuild in proxy order is
	// cheaper than per-pool re-summation — and is trivially bit-identical,
	// being the reference order itself.
	if rebuild {
		c.stats.Rebuilds++
		c.z.SetZero()
		live, w := c.liveP, 0
		for i, k := range live {
			if c.retired[k] {
				continue
			}
			if w < i {
				live[w] = k
			}
			w++
			if b := c.chosen[k]; b >= 0 {
				c.demand(b)
			}
		}
		c.liveP = live[:w]
		return active
	}
	c.stats.Resums += len(c.stale)
	for _, r := range c.stale {
		var sum float64
		for e := c.at[r]; e < c.liveEnd[r]; e++ {
			if b := c.liveB[e]; c.chosen[c.owner[b]] == b {
				sum += c.liveV[e]
			}
		}
		c.z[r] = sum
	}
	return active
}

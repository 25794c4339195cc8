package core

import (
	"cmp"
	"math"
	"slices"
)

// This file implements incremental demand revelation, what makes the
// production round loop (runClock, partition.go) the planet-scale fast
// path of Algorithm 1. The reference loop re-prices every bundle and
// re-scores every proxy every round, but a round's price step only raises
// the over-demanded pools: a bundle touching no raised pool costs exactly
// what it did, and a proxy none of whose bundles was re-priced provably
// repeats its previous choice. Each lane therefore owns a flat,
// pointer-free kernel — its bids' rows copied once, pool ids remapped —
// and on it a round re-prices only the bundles on a moved pool and
// re-chooses only their owners from the cached costs. Excess demand is
// rebuilt only in a round where a choice switched.
//
// Catalog bids repeat rows: many bundles of a lane ask for the same
// product on the same cluster. Bundles with bit-identical rows form a
// shape, found when the lane is built; a round prices a moved shape once
// and copies the cost to its members. A bundle no other bundle shares
// rows with stays a singleton on the per-pool walk, so a market whose
// bundles share nothing does the work it did before shapes.
//
// Determinism contract: results are bit-identical to ReferenceRun.
//
//   - A cached cost is the same from-zero dot over the bundle's ascending
//     rows the reference computes, at prices that have not changed on any
//     of those rows since; the choice scan over the cached costs is the
//     reference's (cost > limit skipped, strictly larger surplus wins).
//     A shape's members share one dot over one member's rows: the same
//     pool ids and quantity bits, so the same sum, bit for bit.
//   - Excess demand is never updated by adding/subtracting deltas —
//     floating point addition is not associative, so delta updates would
//     drift in the low bits. A round that switched a choice rebuilds z
//     from zero over the live proxies in ascending order, the reference's
//     own addition sequence; a round that switched none keeps last
//     round's z, which is what that rebuild would reproduce.
//   - A pure buyer's costs are monotone: price steps are nonnegative and
//     its quantities positive, so each product, and each partial sum
//     added in a fixed order, is nondecreasing under round-to-nearest.
//     A priced-out pure buyer is therefore retired — it can never
//     re-enter and its choice is −1 forever, so it contributes to no sum.
//     Its entries are dropped, order preserved, from the walk lists and
//     the proxy list by the loop that meets them. Likewise a pure
//     buyer's shape member whose cost exceeds its limit is dropped from
//     its shape for good: the choice scan skips it at its cached cost,
//     as it would at any later one. A shape with no member left leaves
//     the walk lists. Sellers and traders carry negative components
//     (rising prices improve their receipts), so they stay listed and
//     evaluated.
//   - A one-bundle pure buyer demands its bundle exactly while the
//     bundle's cost is within its limit, and that cost never falls. So a
//     shape keeps such members apart, ordered by limit, and a round pops
//     only those its one dot now prices over their limits; the rest keep
//     a stale cached cost and are neither re-costed nor re-chosen, their
//     choice being the one the reference scan would make.
//   - A round in which no choice switched leaves z as it was, so the step
//     and the moved pools are last round's: the loop adds that step on
//     those pools again. Adding a +0 step elsewhere would change no
//     price, round 0's full add having already turned any −0 into +0.

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
	// shape[b] is bundle b's shape, −1 when no other bundle of the lane
	// has its rows; shape s has members mAt[s] .. mAt[s+1]-1 of the
	// member list liveM: first the others, then, from ordAt[s], its
	// one-bundle pure buyers' members in ascending limit order.
	shape, mAt, ordAt []int32
	// Pool r's walk lists, its shapes' and then its singleton bundles',
	// start at walkAt[r] and soloAt[r] and end before walkAt[r+1].
	walkAt, soloAt []int32
}

// ClockStats counts the work of one Run's round loops, summed over its
// lanes: whether the incremental reductions engaged is read off these,
// not inferred from timings.
type ClockStats struct {
	// Lanes is the number of component lanes, LaneRounds the rounds
	// they ran, and Held how many of them ran out of rounds.
	Lanes, LaneRounds, Held int
	// Repriced counts the cost slots refreshed past round 0: a moved
	// singleton bundle, a moved shape's members other than one-bundle
	// pure buyers', and those of its one-bundle pure buyers' members it
	// prices over their limits. Rechosen counts the proxies re-scored
	// past round 0, the owners of those slots, and Switched how many of
	// them changed bundle.
	Repriced, Rechosen, Switched int
	// Priced counts the dot products past round 0, one for a shape
	// however many members it re-prices, none or all. Dropped counts the
	// pure buyers' shape members retired because they cost more than
	// their limit.
	Priced, Dropped int
	// Rebuilds counts the rounds past 0 that switched a choice and so
	// rebuilt z, and Reused those that switched none and so added last
	// round's step again.
	Rebuilds, Reused int
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
	s.Priced += o.Priced
	s.Dropped += o.Dropped
	s.Rebuilds += o.Rebuilds
	s.Reused += o.Reused
}

// carve cuts the next n elements off a slab.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// newLane builds the lane of bids (ascending global indices; nB bundles
// and nnz rows in all) over pools (ascending global ids; local maps a
// global id back to its position): the kernel in one pass over the bids'
// rows, and every scratch vector of the round loop, carved from one slab
// per element type; then the shape index (see index).
func (a *Auction) newLane(pools, bids, local []int32, nB, nnz int, table []int32) *lane {
	nP, r := len(bids), len(pools)
	i32 := make([]int32, 6*nP+4*nB+nnz+r+2)
	f64 := make([]float64, nnz+2*nB+4*r)
	flags := make([]bool, 2*nP)
	c := &lane{pools: pools, bids: bids, cfg: a.cfg}
	c.first, c.row, c.idx = carve(&i32, nP+1), carve(&i32, nB+1), carve(&i32, nnz)
	c.owner, c.bundleMark, c.shape = carve(&i32, nB), carve(&i32, nB), carve(&i32, nB)
	c.chosen, c.drop, c.liveP = carve(&i32, nP), carve(&i32, nP), carve(&i32, nP)
	c.proxyMark, c.affected = carve(&i32, nP), carve(&i32, nP)[:0]
	c.dirty = carve(&i32, r)[:0]
	c.val = carve(&f64, nnz)
	c.lim, c.cost = carve(&f64, nB), carve(&f64, nB)
	c.p, c.z, c.step = carve(&f64, r), carve(&f64, r), carve(&f64, r)
	c.cfg.Start = carve(&f64, r)
	c.buyer, c.retired = carve(&flags, nP), carve(&flags, nP)

	for j, g := range pools {
		c.cfg.Start[j] = a.cfg.Start[g]
	}
	// A bid's rows are packed contiguously, its bundle ends after them:
	// they are copied whole, and the ends become the bundles' row starts.
	b, j := int32(0), int32(0)
	for k, bi := range bids {
		bid := a.bids[bi]
		rw := &bid.rows
		nnz := len(rw.val)
		c.first[k], c.buyer[k] = b, true
		for x, g := range rw.idx[:nnz] {
			c.idx[int(j)+x], c.val[int(j)+x] = local[g], rw.val[x]
			if rw.val[x] < 0 {
				c.buyer[k] = false
			}
		}
		lo := j
		for i, end := range rw.idx[nnz : nnz+int(rw.n)] {
			c.row[b], c.lim[b], c.owner[b] = lo, bid.LimitFor(i), int32(k)
			lo = j + end
			b++
		}
		j += int32(nnz)
	}
	c.first[nP], c.row[nB] = b, j
	c.index(table)
	return c
}

// shapeTable returns the open-addressed table a lane of up to
// maxBundles bundles is grouped into shapes with (see group): one table,
// sized for the largest lane, serves every lane of an auction in turn.
func shapeTable(maxBundles int) []int32 {
	n := 1
	for n < 2*maxBundles {
		n <<= 1
	}
	return make([]int32, n)
}

// rowHash hashes bundle b's pool ids and quantity bits.
func (c *lane) rowHash(b int) uint64 {
	lo, hi := c.row[b], c.row[b+1]
	h := uint64(14695981039346656037)
	for j, r := range c.idx[lo:hi] {
		h = (h ^ uint64(r)) * 1099511628211
		h = (h ^ math.Float64bits(c.val[int(lo)+j])) * 1099511628211
	}
	return (h ^ h>>29) * 0x9e3779b97f4a7c15
}

// sameRows reports whether bundles x and y have bit-identical rows: the
// same pool ids and the same quantity bits, so the same dot at any prices.
func (c *lane) sameRows(x, y int32) bool {
	xl, xh, yl := c.row[x], c.row[x+1], c.row[y]
	if xh-xl != c.row[y+1]-yl {
		return false
	}
	for j := int32(0); j < xh-xl; j++ {
		if c.idx[xl+j] != c.idx[yl+j] || math.Float64bits(c.val[xl+j]) != math.Float64bits(c.val[yl+j]) {
			return false
		}
	}
	return true
}

// group groups the lane's bundles by their rows, hashing them into table.
// It leaves in c.shape, for bundle b, b itself when no other bundle of the
// lane has b's rows, ^b when b is the first of several that do, and that
// first bundle otherwise. It returns how many shapes (row sets several
// bundles share) there are, how many members they have, and the rows of
// the per-pool walk: a singleton's rows and one copy of each shape's.
func (c *lane) group(table []int32) (shapes, members, walks int) {
	n, shift := 1, uint(64)
	for n < 2*len(c.owner) {
		n, shift = n<<1, shift-1
	}
	slot, rep := table[:n], c.shape
	for i := range slot {
		slot[i] = -1
	}
	for b := range rep {
		for h := c.rowHash(b) >> shift; ; h = (h + 1) & uint64(n-1) {
			f := slot[h]
			if f < 0 {
				slot[h], rep[b] = int32(b), int32(b)
				walks += int(c.row[b+1] - c.row[b])
				break
			}
			if !c.sameRows(f, int32(b)) {
				continue
			}
			rep[b] = f
			if rep[f] == f {
				rep[f] = ^f
				shapes, members = shapes+1, members+1
			}
			members++
			break
		}
	}
	return shapes, members, walks
}

// index builds the lane's shape index, the rest in one more slab sized by
// group: each bundle's shape, numbered by first member; each shape's
// member range, its one-bundle pure buyers' members laid out at its end
// by ascending limit; and each pool's walk ranges.
func (c *lane) index(table []int32) {
	shapes, members, walks := c.group(table)
	r := len(c.pools)
	i32 := make([]int32, 5*shapes+1+members+walks+4*r+1)
	c.mAt, c.ordAt, c.ordLo = carve(&i32, shapes+1), carve(&i32, shapes), carve(&i32, shapes)
	c.mEnd, c.shapeMark, c.liveM = carve(&i32, shapes), carve(&i32, shapes), carve(&i32, members)
	c.walk, c.walkAt, c.soloAt = carve(&i32, walks), carve(&i32, r+1), carve(&i32, r)
	c.shapeEnd, c.soloEnd = carve(&i32, r), carve(&i32, r)
	next := int32(0)
	for b := range c.shape {
		// A shape's first member numbers it and walks its rows; a later
		// member takes the number of its first, an earlier bundle.
		f, walked := c.shape[b], true
		switch {
		case f == int32(b):
			c.shape[b] = -1
		case f < 0:
			c.shape[b], next = next, next+1
		default:
			c.shape[b], walked = c.shape[f], false
		}
		if s := c.shape[b]; s >= 0 {
			c.mAt[s+1]++
		}
		if walked {
			for _, r := range c.idx[c.row[b]:c.row[b+1]] {
				c.walkAt[r+1]++
				if c.shape[b] >= 0 {
					c.soloAt[r]++ // counts the pool's shapes until the sums below
				}
			}
		}
	}
	for g := 0; g < r; g++ {
		c.walkAt[g+1] += c.walkAt[g]
		c.soloAt[g] += c.walkAt[g]
	}
	for s := 0; s < shapes; s++ {
		c.mAt[s+1] += c.mAt[s]
	}
	// The one-bundle buyers' members end their shape's range, placed from
	// its end in bundle order, then ordered by limit. reset leaves them in
	// place; it lays out the other members every run.
	copy(c.ordAt, c.mAt[1:])
	for k := len(c.buyer) - 1; k >= 0; k-- {
		b := c.first[k]
		if s := c.shape[b]; s >= 0 && c.oneBundleBuyer(int32(k)) {
			c.ordAt[s]--
			c.liveM[c.ordAt[s]] = b
		}
	}
	byLimit := func(x, y int32) int { return cmp.Compare(c.lim[x], c.lim[y]) }
	for s := 0; s < shapes; s++ {
		slices.SortStableFunc(c.liveM[c.ordAt[s]:c.mAt[s+1]], byLimit)
	}
}

// oneBundleBuyer reports whether proxy k is a pure buyer of one bundle:
// it demands that bundle exactly while the bundle's cost, which never
// falls, is within its limit.
//
//marketlint:allocfree
func (c *lane) oneBundleBuyer(k int32) bool {
	return c.buyer[k] && c.first[k+1]-c.first[k] == 1
}

// reset readies the scratch for a run from the reserve prices: nobody
// retired, no history or counters, and the lists the rounds shrink laid
// out whole, bundle by bundle so each is ascending — shape s's
// liveM[mAt[s]:mEnd[s]] its members but the one-bundle buyers', whose
// liveM[ordLo[s]:mAt[s+1]] is its whole ordered list again, and pool r's
// walk[walkAt[r]:shapeEnd[r]] and walk[soloAt[r]:soloEnd[r]] its shapes
// and singleton bundles. The epoch-stamped marks survive across runs (a
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
	copy(c.shapeEnd, c.walkAt)
	copy(c.soloEnd, c.soloAt)
	copy(c.mEnd, c.mAt)
	copy(c.ordLo, c.ordAt)
	seen := int32(0) // shapes are numbered by first member
	for b := range c.owner {
		s, first := c.shape[b], true
		if s >= 0 {
			first = s == seen
			if first {
				seen++
			}
			if !c.oneBundleBuyer(c.owner[b]) {
				c.liveM[c.mEnd[s]] = int32(b)
				c.mEnd[s]++
			}
		}
		for _, r := range c.idx[c.row[b]:c.row[b+1]] {
			switch {
			case s < 0:
				c.walk[c.soloEnd[r]] = int32(b)
				c.soloEnd[r]++
			case first:
				c.walk[c.shapeEnd[r]] = s
				c.shapeEnd[r]++
			}
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
		clear(c.shapeMark)
		clear(c.proxyMark)
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
// when priced out: Bid.bestAffordable's scan, bundle for bundle.
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

// reprice refreshes shape s, whose pools moved: one dot over the rows of
// a live member, copied into the cost slot of each member but the
// one-bundle buyers', and each such member's owner listed for
// re-choosing. A retired buyer's member leaves the shape, and so does a
// pure buyer's member priced over its limit: its cost can never come back
// down. Of the one-bundle buyers' members, only those the dot prices over
// their limits are visited: popped off the front of the limit order, they
// are re-costed and their owners listed, unless retired at round 0.
//
//marketlint:allocfree
func (c *lane) reprice(s int32) {
	lo, w := c.mAt[s], int32(0)
	list := c.liveM[lo:c.mEnd[s]]
	cost, priced := 0.0, false
	for i, b := range list {
		k := c.owner[b]
		if c.retired[k] {
			continue
		}
		if !priced {
			cost, priced = c.price(b), true
			c.stats.Priced++
		}
		c.cost[b] = cost
		c.stats.Repriced++
		if c.proxyMark[k] != c.epoch {
			c.proxyMark[k] = c.epoch
			c.affected = append(c.affected, k)
		}
		if c.buyer[k] && cost > c.lim[b] {
			c.stats.Dropped++
			continue
		}
		if w < int32(i) {
			list[w] = b
		}
		w++
	}
	c.mEnd[s] = lo + w

	ord := c.liveM[c.ordLo[s]:c.mAt[s+1]]
	if len(ord) == 0 {
		return
	}
	if !priced {
		cost = c.price(ord[0])
		c.stats.Priced++
	}
	n := 0
	for ; n < len(ord) && cost > c.lim[ord[n]]; n++ {
		b := ord[n]
		k := c.owner[b]
		if c.retired[k] {
			continue
		}
		c.cost[b] = cost
		c.stats.Repriced++
		c.stats.Dropped++
		c.affected = append(c.affected, k) // its only bundle: listed once
	}
	c.ordLo[s] += int32(n)
}

// emptied reports whether shape s has no live member left.
//
//marketlint:allocfree
func (c *lane) emptied(s int32) bool {
	return c.mEnd[s] == c.mAt[s] && c.ordLo[s] == c.mAt[s+1]
}

// advance applies one round of incremental demand revelation at round t:
// re-price the live bundles and shapes on a dirty pool, re-choose their
// owners, and, when any choice switched, rebuild z. It returns the
// updated active-bidder count and whether any choice switched: when none
// did, z is untouched.
//
//marketlint:allocfree
func (c *lane) advance(t, active int) (int, bool) {
	c.epoch++
	switched := c.stats.Switched
	c.affected = c.affected[:0]
	for _, r := range c.dirty {
		// The pool's shapes, then its singletons: two loops, so the walk
		// never branches on an entry's kind.
		lo := c.walkAt[r]
		list, w := c.walk[lo:c.shapeEnd[r]], 0
		for i, s := range list {
			if c.shapeMark[s] != c.epoch {
				c.shapeMark[s] = c.epoch
				c.reprice(s)
			}
			if c.emptied(s) {
				continue // the shape leaves the list
			}
			if w < i {
				list[w] = s
			}
			w++
		}
		c.shapeEnd[r] = lo + int32(w)
		lo = c.soloAt[r]
		list, w = c.walk[lo:c.soloEnd[r]], 0
		priced := 0
		for i, b := range list {
			k := c.owner[b]
			if c.retired[k] {
				continue // dropped from the list: w stays behind
			}
			if w < i {
				list[w] = b
			}
			w++
			if c.bundleMark[b] == c.epoch {
				continue
			}
			c.bundleMark[b] = c.epoch
			c.cost[b] = c.price(b)
			priced++
			if c.proxyMark[k] != c.epoch {
				c.proxyMark[k] = c.epoch
				c.affected = append(c.affected, k)
			}
		}
		c.soloEnd[r] = lo + int32(w)
		c.stats.Priced += priced
		c.stats.Repriced += priced
	}

	c.stats.Rechosen += len(c.affected)
	for _, k := range c.affected {
		old, b := c.chosen[k], c.choose(k)
		if b == old {
			continue
		}
		c.chosen[k] = b
		c.stats.Switched++
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
	if c.stats.Switched == switched {
		return active, false
	}

	// Rebuild z from zero in proxy order, the reference order itself,
	// dropping the retired buyers from the proxy list on the way.
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
	return active, true
}

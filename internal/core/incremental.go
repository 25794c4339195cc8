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
// shape, found when the lane is built, and a bundle no other shares rows
// with is a shape of one. The cost lives on the shape: a round prices a
// moved shape once, and every member reads that one slot.
//
// Determinism contract: results are bit-identical to ReferenceRun.
//
//   - A shape's cached cost is the same from-zero dot over a member's
//     ascending rows the reference computes, at prices that have not
//     changed on any of those rows since; its members have the same pool
//     ids and quantity bits, so each member's dot is that one, bit for
//     bit. The choice scan over the cached costs is the reference's
//     (cost > limit skipped, strictly larger surplus wins).
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
//     Its members are dropped, order preserved, from their shapes and
//     the proxy list by the loop that meets them. Likewise a pure
//     buyer's member whose cost exceeds its limit is dropped from its
//     shape for good: the choice scan skips it at the shape's cost, as it
//     would at any later one. A shape with no member left leaves the walk
//     lists, its cost no longer refreshed: every member's owner is
//     retired or skips it. Sellers and traders carry negative components
//     (rising prices improve their receipts), so they stay listed and
//     evaluated.
//   - A one-bundle pure buyer demands its bundle exactly while the
//     bundle's cost is within its limit, and that cost never falls. So a
//     shape keeps such members apart, ordered by limit, and a round pops
//     only those its one dot now prices over their limits; the rest are
//     not re-chosen, their choice being the one the reference scan would
//     make.
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
	// shape[b] is bundle b's shape, the bundles with its rows, numbered
	// by first member (see rec for a shape's own fields).
	shape []int32
	// Pool r's walk list, of the shapes on it, starts at walkAt[r] and
	// ends before walkAt[r+1].
	walkAt []int32
}

// A shape's record, shape s's fields being recs[s*recLen+f]: fixed at
// build, its rows idx[row:rowEnd] (its first member's) and its members
// liveM[lo:hi], first the others and then, from ordAt, its one-bundle
// pure buyers' in ascending limit order; then one run's state, the others
// still in the running being liveM[lo:end], the one-bundle buyers'
// liveM[ord:hi], and mark the epoch it was last priced in. Packed, a
// round's visit to a shape reads one record.
const (
	shRow = iota
	shRowEnd
	shLo
	shOrdAt
	shHi
	shEnd
	shOrd
	shMark
	recLen
)

// ClockStats counts the work of one Run's round loops, summed over its
// lanes: whether the incremental reductions engaged is read off these,
// not inferred from timings.
type ClockStats struct {
	// Lanes is the number of component lanes, LaneRounds the rounds
	// they ran, and Held how many of them ran out of rounds.
	Lanes, LaneRounds, Held int
	// Repriced counts the live members a moved shape visits past round
	// 0: those other than one-bundle pure buyers', and the one-bundle
	// pure buyers' it prices over their limits. Rechosen counts the
	// proxies re-scored past round 0, the owners of those members, and
	// Switched how many of them changed bundle.
	Repriced, Rechosen, Switched int
	// Priced counts the dot products past round 0, one for a moved shape
	// however many members it visits, none or all. Dropped counts the
	// pure buyers' members retired from their shapes because they cost
	// more than their limit.
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
	i32 := make([]int32, 6*nP+3*nB+nnz+r+2)
	f64 := make([]float64, nnz+2*nB+4*r)
	flags := make([]bool, 2*nP)
	c := &lane{pools: pools, bids: bids, cfg: a.cfg}
	c.first, c.row, c.idx = carve(&i32, nP+1), carve(&i32, nB+1), carve(&i32, nnz)
	c.owner, c.shape = carve(&i32, nB), carve(&i32, nB)
	c.chosen, c.drop, c.liveP = carve(&i32, nP), carve(&i32, nP), carve(&i32, nP)
	c.proxyMark, c.affected = carve(&i32, nP), carve(&i32, nP)[:0]
	c.dirty = carve(&i32, r)[:0]
	// A lane has at most a shape a bundle: index trims cost to its shapes.
	c.val, c.lim, c.cost = carve(&f64, nnz), carve(&f64, nB), carve(&f64, nB)
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

// group numbers the lane's shapes, hashing its bundles by their rows
// into table: bundle b takes the shape of the first bundle with its rows,
// and when it is that first bundle, the next number. It returns how many
// shapes there are and the rows of their walk lists, one copy of each
// shape's.
func (c *lane) group(table []int32) (shapes, walks int) {
	n, shift := 1, uint(64)
	for n < 2*len(c.owner) {
		n, shift = n<<1, shift-1
	}
	slot := table[:n]
	for i := range slot {
		slot[i] = -1
	}
	for b := range c.shape {
		for h := c.rowHash(b) >> shift; ; h = (h + 1) & uint64(n-1) {
			f := slot[h]
			if f < 0 {
				slot[h], c.shape[b] = int32(b), int32(shapes)
				shapes, walks = shapes+1, walks+int(c.row[b+1]-c.row[b])
				break
			}
			if c.sameRows(f, int32(b)) {
				c.shape[b] = c.shape[f]
				break
			}
		}
	}
	return shapes, walks
}

// index builds the lane's shape index, in one more slab sized by group:
// each shape's record, with its one-bundle pure buyers' members laid out
// at the end of its member range by ascending limit, and each pool's
// walk range.
func (c *lane) index(table []int32) {
	shapes, walks := c.group(table)
	r := len(c.pools)
	i32 := make([]int32, recLen*shapes+len(c.shape)+walks+2*r+1)
	c.recs, c.liveM = carve(&i32, recLen*shapes), carve(&i32, len(c.shape))
	c.walk, c.walkAt, c.walkEnd = carve(&i32, walks), carve(&i32, r+1), carve(&i32, r)
	c.cost = c.cost[:shapes]
	for b, s := range c.shape {
		sh := c.rec(s)
		if sh[shHi] == 0 { // its first member: the shape's rows are its
			sh[shRow], sh[shRowEnd] = c.row[b], c.row[b+1]
		}
		sh[shHi]++ // counts the members until the sums below
	}
	at := int32(0)
	for s := range c.cost {
		sh := c.rec(int32(s))
		for _, r := range c.idx[sh[shRow]:sh[shRowEnd]] {
			c.walkAt[r+1]++
		}
		sh[shLo], sh[shHi] = at, at+sh[shHi]
		sh[shOrdAt], at = sh[shHi], sh[shHi]
	}
	for g := 0; g < r; g++ {
		c.walkAt[g+1] += c.walkAt[g]
	}
	// The one-bundle buyers' members end their shape's range, placed from
	// its end in bundle order, then ordered by limit. reset leaves them in
	// place; it lays out the other members every run.
	for k := len(c.buyer) - 1; k >= 0; k-- {
		if b := c.first[k]; c.oneBundleBuyer(int32(k)) {
			sh := c.rec(c.shape[b])
			sh[shOrdAt]--
			c.liveM[sh[shOrdAt]] = b
		}
	}
	byLimit := func(x, y int32) int { return cmp.Compare(c.lim[x], c.lim[y]) }
	for s := range c.cost {
		sh := c.rec(int32(s))
		slices.SortStableFunc(c.liveM[sh[shOrdAt]:sh[shHi]], byLimit)
	}
}

// rec returns shape s's record.
//
//marketlint:allocfree
func (c *lane) rec(s int32) []int32 {
	return c.recs[int(s)*recLen:][:recLen]
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
// out whole and ascending — pool r's walk[walkAt[r]:walkEnd[r]] its
// shapes, and a shape's members but the one-bundle buyers' from its lo,
// whose ordered list is whole again. The epoch-stamped marks survive
// across runs (a mark below the current epoch reads as "unseen").
//
//marketlint:allocfree
func (c *lane) reset() {
	copy(c.p, c.cfg.Start)
	c.z.SetZero()
	clear(c.retired)
	for k := range c.drop {
		c.drop[k] = -1
	}
	copy(c.walkEnd, c.walkAt)
	for s := range c.cost {
		sh := c.rec(int32(s))
		sh[shEnd], sh[shOrd] = sh[shLo], sh[shOrdAt]
		for _, r := range c.idx[sh[shRow]:sh[shRowEnd]] {
			c.walk[c.walkEnd[r]] = int32(s)
			c.walkEnd[r]++
		}
	}
	for b, s := range c.shape {
		if !c.oneBundleBuyer(c.owner[b]) {
			sh := c.rec(s)
			c.liveM[sh[shEnd]] = int32(b)
			sh[shEnd]++
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
		for s := range c.cost {
			c.rec(int32(s))[shMark] = 0
		}
		clear(c.proxyMark)
	}
}

// price computes bundle b's cost qᵀp at the lane's prices.
//
//marketlint:allocfree
func (c *lane) price(b int32) float64 {
	return c.dot(c.row[b], c.row[b+1])
}

// dot computes qᵀp from zero over the ascending rows lo .. hi-1 —
// sparseBundle.dot's arithmetic on the lane's slabs.
//
//marketlint:allocfree
func (c *lane) dot(lo, hi int32) float64 {
	p, val, sum := c.p, c.val[lo:hi], 0.0
	for j, r := range c.idx[lo:hi] {
		sum += float64(val[j] * p[r]) // rounded before the add (make fma-check)
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
		cost, lim := c.cost[c.shape[b]], c.lim[b]
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = b, s
		}
	}
	return best
}

// open is round 0, a full evaluation: every shape is priced at the
// reserve prices, every proxy chooses, and z is built from scratch in
// proxy order, exactly as the reference round does. It returns the
// active-bidder count.
//
//marketlint:allocfree
func (c *lane) open() int {
	for s := range c.cost {
		sh := c.rec(int32(s))
		c.cost[s] = c.dot(sh[shRow], sh[shRowEnd])
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

// reprice refreshes shape s, whose pools moved and which has a live
// member, from its record sh: one dot into its cost slot, and each member
// but the one-bundle buyers' visited, its owner listed for re-choosing. A
// retired buyer's member leaves the shape, and so does a pure buyer's
// member priced over its limit: its cost can never come back down. Of the
// one-bundle buyers' members, only those the dot prices over their
// limits are visited: popped off the front of the limit order, their
// owners are listed, unless retired at round 0.
//
//marketlint:allocfree
func (c *lane) reprice(s int32, sh []int32) {
	cost := c.dot(sh[shRow], sh[shRowEnd])
	c.cost[s] = cost
	c.stats.Priced++
	w := sh[shLo]
	for _, b := range c.liveM[w:sh[shEnd]] {
		k := c.owner[b]
		if c.retired[k] {
			continue
		}
		c.stats.Repriced++
		if c.proxyMark[k] != c.epoch {
			c.proxyMark[k] = c.epoch
			c.affected = append(c.affected, k)
		}
		if c.buyer[k] && cost > c.lim[b] {
			c.stats.Dropped++
			continue
		}
		c.liveM[w] = b
		w++
	}
	sh[shEnd] = w

	ord := c.liveM[sh[shOrd]:sh[shHi]]
	n := 0
	for ; n < len(ord) && cost > c.lim[ord[n]]; n++ {
		k := c.owner[ord[n]]
		if c.retired[k] {
			continue
		}
		c.stats.Repriced++
		c.stats.Dropped++
		c.affected = append(c.affected, k) // its only bundle: listed once
	}
	sh[shOrd] += int32(n)
}

// emptied reports whether the shape of record sh has no live member left.
//
//marketlint:allocfree
func emptied(sh []int32) bool {
	return sh[shEnd] == sh[shLo] && sh[shOrd] == sh[shHi]
}

// advance applies one round of incremental demand revelation at round t:
// re-price the shapes on a dirty pool, re-choose their members' owners,
// and, when any choice switched, rebuild z. It returns the updated
// active-bidder count and whether any choice switched: when none did, z
// is untouched.
//
//marketlint:allocfree
func (c *lane) advance(t, active int) (int, bool) {
	c.epoch++
	switched := c.stats.Switched
	c.affected = c.affected[:0]
	for _, r := range c.dirty {
		lo := c.walkAt[r]
		list, w := c.walk[lo:c.walkEnd[r]], 0
		for i, s := range list {
			sh := c.rec(s)
			if sh[shMark] != c.epoch && !emptied(sh) {
				sh[shMark] = c.epoch
				c.reprice(s, sh)
			}
			if emptied(sh) {
				continue // the shape leaves the list
			}
			if w < i {
				list[w] = s
			}
			w++
		}
		c.walkEnd[r] = lo + int32(w)
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

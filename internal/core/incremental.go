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
// shape, found when the lane is built; the cost lives on the shape, so a
// round prices a moved shape once. Catalog bids repeat whole bids too
// (paper Section III: a proxy's choice depends on its bundles and limit
// alone), so pure buyers of one limit with the same shape sequence form
// a demand class, which a shape lists once and a round re-scores once.
//
// Determinism contract: results are bit-identical to ReferenceRun.
//
//   - A shape's cached cost is the reference's from-zero dot over its
//     rows at prices unchanged on them since, bit for bit the dot of each
//     of its bundles. A class re-scores at the cached costs for all its
//     members, which are in ascending limit order: those whose limit L the
//     cheapest cost (first on ties) passes are priced out, and the rest
//     take that bundle, the reference scan's choice, as rounding is
//     monotone in L − cost. The tie rule: costs under an ulp of L apart
//     can round to one surplus, where the scan keeps the earlier, dearer
//     bundle; so when a bundle before the cheapest costs within 2 ulp of
//     max(|largest L|, |cheapest|) of it, each member scans on its own.
//     Sellers, traders and bids of several limits always do.
//   - Excess demand is never updated by adding/subtracting deltas —
//     floating point addition is not associative, so delta updates would
//     drift in the low bits. A round that switched a choice rebuilds z
//     from zero over the live proxies in ascending order, the reference's
//     own addition sequence; a round that switched none keeps last
//     round's z, which is what that rebuild would reproduce.
//   - A pure buyer's costs are monotone: price steps are nonnegative and
//     its quantities positive, so each product, and each partial sum
//     added in a fixed order, is nondecreasing under round-to-nearest.
//     A priced-out pure buyer is therefore retired for good, and so is a
//     bundle priced over its limit (a class's largest): it leaves its
//     shape, and a class its members priced out. A shape with nothing
//     left leaves the walk lists. A chosen one-bundle seller's cost only
//     falls, so it retires with its choice: it leaves its shape, and the
//     rebuild still adds it.
//   - A round in which no choice switched leaves z as it was, so the step
//     and the moved pools are last round's: the loop adds that step on
//     those pools again. Adding a +0 step elsewhere would change no
//     price, round 0's full add having already turned any −0 into +0.

// kernel is the immutable, bids-derived half of a lane, built once
// (bids are frozen after NewAuction) and shared by every run. Bundles are
// numbered proxy-major, so ascending bundle order is ascending bid order.
type kernel struct {
	first  []int32   // proxy k owns bundles first[k] .. first[k+1]-1
	row    []int32   // bundle b owns rows row[b] .. row[b+1]-1
	idx    []int32   // row → lane-local pool, ascending within a bundle
	val    []float64 // row → quantity
	lim    []float64 // bundle → its limit (Bid.LimitFor, resolved once)
	owner  []int32   // bundle → proxy
	buyer  []bool    // proxy → pure buyer
	seller []bool    // proxy → pure seller of one bundle
	// shape[b] is bundle b's shape, the bundles with its rows, numbered
	// by first member (see rec for a shape's own fields).
	shape []int32
	// class[k] is k's demand class (see crec) when k is its last member,
	// of the largest limit, who stands for it in the shapes; −2 for its
	// other members; −1 for a proxy on its own scan.
	class, members []int32
	classes        int32 // how many there are
	// Pool r's walk list, of the shapes on it, starts at walkAt[r] and
	// ends before walkAt[r+1].
	walkAt []int32
}

// A shape's record, shape s's fields being recs[s*recLen+f]: fixed at
// build, its rows idx[row:rowEnd] (its first member's) and its listed
// bundles liveM[lo:hi] (see listed); then one run's state, those still
// listed being liveM[lo:end], one its one-bundle class while that has a
// live member (else −1) and front that member's bundle, whose limit
// the shape's cost is held to, and mark the epoch it was last priced in.
// Packed, a round's visit to a shape reads one record.
const (
	shRow = iota
	shRowEnd
	shLo
	shHi
	shEnd
	shOne
	shFront
	shMark
	recLen
)

// A class's record, class c's fields being crecs[c*crecLen+f]: its
// members members[lo:hi], sorted by limit; in a run, the live ones
// members[ord:hi] and pick, the bundle offset they all chose (or −1).
const (
	cLo = iota
	cHi
	cOrd
	cPick
	crecLen
)

// ClockStats counts the work of one Run's round loops, summed over its
// lanes: whether the incremental reductions engaged is read off these,
// not inferred from timings.
type ClockStats struct {
	// Lanes is the number of component lanes, LaneRounds the rounds
	// they ran, and Held how many of them ran out of rounds.
	Lanes, LaneRounds, Held int
	// Repriced counts the listed bundles and classes a moved shape visits
	// past round 0, Rechosen the classes re-scored (a proxy on its own
	// scan counting as one), and Switched how many proxies changed bundle.
	Repriced, Rechosen, Switched int
	// Priced counts the dot products past round 0, one for a moved shape
	// however many it visits. Dropped counts the class members priced
	// out, and the bundles of proxies on their own scans dropped from
	// their shapes for costing more than their limits.
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
// per element type; then the shape and class index (see index).
func (a *Auction) newLane(pools, bids, local []int32, nB, nnz int, table []int32) *lane {
	nP, r := len(bids), len(pools)
	i32 := make([]int32, 8*nP+3*nB+nnz+r+2)
	f64 := make([]float64, nnz+2*nB+4*r)
	flags := make([]bool, 3*nP)
	c := &lane{pools: pools, bids: bids, cfg: a.cfg}
	c.first, c.row, c.idx = carve(&i32, nP+1), carve(&i32, nB+1), carve(&i32, nnz)
	c.owner, c.shape = carve(&i32, nB), carve(&i32, nB)
	c.class, c.members = carve(&i32, nP), carve(&i32, nP)
	c.chosen, c.drop, c.liveP = carve(&i32, nP), carve(&i32, nP), carve(&i32, nP)
	c.proxyMark, c.affected = carve(&i32, nP), carve(&i32, nP)[:0]
	c.dirty = carve(&i32, r)[:0]
	// A lane has at most a shape a bundle: index trims cost to its shapes.
	c.val, c.lim, c.cost = carve(&f64, nnz), carve(&f64, nB), carve(&f64, nB)
	c.p, c.z, c.step = carve(&f64, r), carve(&f64, r), carve(&f64, r)
	c.cfg.Start = carve(&f64, r)
	c.buyer, c.seller, c.retired = carve(&flags, nP), carve(&flags, nP), carve(&flags, nP)

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
		c.seller[k] = rw.n == 1 && !c.buyer[k] && slices.Max(rw.val) <= 0
		lo := j
		c.class[k] = 0 // a pure buyer of one limit, for group to class
		for i, end := range rw.idx[nnz : nnz+int(rw.n)] {
			c.row[b], c.lim[b], c.owner[b] = lo, bid.LimitFor(i), int32(k)
			if !c.buyer[k] || c.lim[b] != c.lim[c.first[k]] {
				c.class[k] = -1
			}
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
// maxBundles bundles is grouped into shapes and classes with (see
// group): one table, sized for the largest lane, serves every lane of an
// auction in turn.
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

// shapesHash hashes proxy k's shape sequence.
func (c *lane) shapesHash(k int) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range c.shape[c.first[k]:c.first[k+1]] {
		h = (h ^ uint64(s)) * 1099511628211
	}
	return (h ^ h>>29) * 0x9e3779b97f4a7c15
}

// sameShapes reports whether proxies x and y have the same shape
// sequence, so the same costs at any prices.
func (c *lane) sameShapes(x, y int32) bool {
	return slices.Equal(c.shape[c.first[x]:c.first[x+1]], c.shape[c.first[y]:c.first[y+1]])
}

// intern returns the first key from slot h on (a power-of-two table of
// keys + 1, 0 for empty) that same equates to key, entering key if none.
func intern(slot []int32, h uint64, key int32, same func(x, y int32) bool) int32 {
	for mask := uint64(len(slot) - 1); ; h = (h + 1) & mask {
		f := slot[h] - 1
		if f < 0 {
			slot[h] = key + 1
			return key
		}
		if same(f, key) {
			return f
		}
	}
}

// group numbers the lane's shapes, hashing its bundles by their rows
// into table: bundle b takes the shape of the first bundle with its rows,
// and when it is that first bundle, the next number. It groups the pure
// buyers of one limit into classes the same way, by shape sequence, but
// for a lone bid of several bundles, which scans on its own, and lays
// out each class's members in proxy order. It returns the shapes, the
// classes, the walk lists' rows (one copy of each shape's) and the
// listed bundles.
func (c *lane) group(table []int32) (shapes, walks, listed int) {
	n, shift := 1, uint(64)
	for n < 2*len(c.owner) {
		n, shift = n<<1, shift-1
	}
	slot := table[:n]
	clear(slot)
	for b := range c.shape {
		if f := intern(slot, c.rowHash(b)>>shift, int32(b), c.sameRows); f != int32(b) {
			c.shape[b] = c.shape[f]
			continue
		}
		c.shape[b] = int32(shapes)
		shapes, walks = shapes+1, walks+int(c.row[b+1]-c.row[b])
	}
	// Until numbered, a class is its first member f, chosen[f] its number
	// and drop[f] its size, then the end of its members: reset and open
	// rewrite both.
	clear(slot)
	for k, f := range c.class {
		if f >= 0 {
			f = intern(slot, c.shapesHash(k)>>shift, int32(k), c.sameShapes)
			c.class[k] = f
			c.drop[f]++
		}
	}
	at := int32(0)
	for k, f := range c.class {
		n := int(c.first[k+1] - c.first[k])
		switch {
		case f < 0:
			listed += n
			continue
		case f == int32(k) && c.drop[k] == 1 && n > 1:
			c.class[k], listed = -1, listed+n
			continue
		case f == int32(k):
			c.chosen[k], c.classes = c.classes, c.classes+1
			c.drop[k], at = at, at+c.drop[k]
			if n > 1 {
				listed += n // its last member's
			}
		}
		c.class[k] = c.chosen[f]
		c.members[c.drop[f]] = int32(k)
		c.drop[f]++
	}
	c.members = c.members[:at]
	return shapes, walks, listed
}

// index builds the lane's shape and class records, in one more slab
// sized by group, and each pool's walk range.
func (c *lane) index(table []int32) {
	shapes, walks, listed := c.group(table)
	r := len(c.pools)
	i32 := make([]int32, recLen*shapes+listed+walks+2*r+1+crecLen*int(c.classes))
	c.recs, c.liveM, c.crecs = carve(&i32, recLen*shapes), carve(&i32, listed), carve(&i32, crecLen*int(c.classes))
	c.walk, c.walkAt, c.walkEnd = carve(&i32, walks), carve(&i32, r+1), carve(&i32, r)
	// cost holds each proxy's limit, the members' sort key, until trimmed
	// to the shapes.
	lims := c.cost
	for k := range c.class {
		lims[k] = c.lim[c.first[k]]
	}
	at := int32(0)
	for cl := range c.classes {
		cr := c.crec(int32(cl))
		cr[cLo], cr[cHi] = at, c.drop[c.members[at]] // its first member's end
		ks := c.members[cr[cLo]:cr[cHi]]
		at = cr[cHi]
		slices.SortStableFunc(ks, func(x, y int32) int { return cmp.Compare(lims[x], lims[y]) })
		for _, k := range ks[:len(ks)-1] {
			c.class[k] = -2
		}
	}

	c.cost = c.cost[:shapes]
	for b, s := range c.shape {
		sh := c.rec(s)
		if sh[shRowEnd] == 0 { // its first member: the shape's rows are its
			sh[shRow], sh[shRowEnd] = c.row[b], c.row[b+1]
		}
		if c.listed(c.owner[b]) {
			sh[shHi]++ // counts the listed bundles until the sums below
		}
	}
	at = 0
	for s := range c.cost {
		sh := c.rec(int32(s))
		for _, r := range c.idx[sh[shRow]:sh[shRowEnd]] {
			c.walkAt[r+1]++
		}
		sh[shLo], sh[shHi] = at, at+sh[shHi]
		at = sh[shHi]
	}
	for g := 0; g < r; g++ {
		c.walkAt[g+1] += c.walkAt[g]
	}
}

// rec returns shape s's record.
//
//marketlint:allocfree
func (c *lane) rec(s int32) []int32 {
	return c.recs[int(s)*recLen:][:recLen]
}

// crec returns class cl's record.
//
//marketlint:allocfree
func (c *lane) crec(cl int32) []int32 {
	return c.crecs[int(cl)*crecLen:][:crecLen]
}

// listed reports whether the shapes list proxy k's bundles: k is on its
// own scan, or stands for a class of several bundles. A one-bundle class
// sits in its shape's record instead.
//
//marketlint:allocfree
func (c *lane) listed(k int32) bool {
	cl := c.class[k]
	return cl == -1 || cl >= 0 && c.first[k+1]-c.first[k] > 1
}

// reset readies the scratch for a run from the reserve prices: nobody
// retired, no history or counters, and the lists the rounds shrink laid
// out whole and ascending — pool r's walk[walkAt[r]:walkEnd[r]] its
// shapes, a shape's listed bundles (open adds its class). The
// epoch-stamped marks survive across runs (a mark below the current
// epoch reads as "unseen").
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
		sh[shEnd], sh[shOne] = sh[shLo], -1
		for _, r := range c.idx[sh[shRow]:sh[shRowEnd]] {
			c.walk[c.walkEnd[r]] = int32(s)
			c.walkEnd[r]++
		}
	}
	for b, s := range c.shape {
		if c.listed(c.owner[b]) {
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
// proxy order, exactly as the reference round does; the members priced
// out lead their classes, which drop them. It returns the active-bidder
// count.
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
			c.retired[k] = c.seller[k]
		} else {
			c.drop[k] = 0
			c.retired[k] = c.buyer[k]
		}
	}
	for cl := range c.classes {
		cr := c.crec(cl)
		cr[cOrd], cr[cPick] = cr[cLo], -1
		for cr[cOrd] < cr[cHi] && c.retired[c.members[cr[cOrd]]] {
			cr[cOrd]++
		}
		c.settle(cl, cr[cOrd], cr[cHi])
	}
	return active
}

// settle puts one-bundle class cl, whose live members start at lo, on
// its shape's record with its first live member's bundle, or off it when
// none is left.
//
//marketlint:allocfree
func (c *lane) settle(cl, lo, hi int32) {
	if k := c.members[hi-1]; c.first[k+1]-c.first[k] == 1 {
		sh := c.rec(c.shape[c.first[k]])
		if sh[shOne] = -1; lo < hi {
			sh[shOne], sh[shFront] = cl, c.first[c.members[lo]]
		}
	}
}

// reprice refreshes shape s, whose pools moved and which has a live
// class, from its record sh: one dot into its cost slot, and each listed
// bundle's class listed for re-scoring. A retired proxy's bundle leaves
// the shape, and so does a pure buyer's priced over its limit. The
// one-bundle class is listed only when the dot prices its first out.
//
//marketlint:allocfree
func (c *lane) reprice(s int32, sh []int32) {
	cost := c.dot(sh[shRow], sh[shRowEnd])
	c.cost[s] = cost
	c.stats.Priced++
	if one := sh[shOne]; one >= 0 && cost > c.lim[sh[shFront]] {
		c.stats.Repriced++
		c.list(c.members[c.crec(one)[cHi]-1])
	}
	w := sh[shLo]
	for _, b := range c.liveM[w:sh[shEnd]] {
		k := c.owner[b]
		if c.retired[k] {
			continue
		}
		c.stats.Repriced++
		c.list(k)
		if c.buyer[k] && cost > c.lim[b] {
			if c.class[k] < 0 {
				c.stats.Dropped++ // a class counts its members
			}
			continue
		}
		c.liveM[w] = b
		w++
	}
	sh[shEnd] = w
}

// list adds proxy k, once a round, to those to re-choose.
//
//marketlint:allocfree
func (c *lane) list(k int32) {
	if c.proxyMark[k] != c.epoch {
		c.proxyMark[k] = c.epoch
		c.affected = append(c.affected, k)
	}
}

// emptied reports whether the shape of record sh has no live class left.
//
//marketlint:allocfree
func emptied(sh []int32) bool {
	return sh[shEnd] == sh[shLo] && sh[shOne] < 0
}

// advance applies one round of incremental demand revelation at round t:
// re-price the shapes on a dirty pool, re-score the classes listed in
// them, and, when any choice switched, rebuild z. It returns the updated
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
		if cl := c.class[k]; cl >= 0 {
			active = c.rescore(cl, t, active)
		} else if b := c.choose(k); b != c.chosen[k] {
			active = c.switchTo(k, b, t, active)
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
		b := c.chosen[k]
		if b < 0 && c.retired[k] {
			continue
		}
		if w < i {
			live[w] = k
		}
		w++
		if b >= 0 {
			c.demand(b)
		}
	}
	c.liveP = live[:w]
	return active, true
}

// switchTo switches proxy k's choice to bundle b at round t and returns
// the updated active-bidder count.
//
//marketlint:allocfree
func (c *lane) switchTo(k, b int32, t, active int) int {
	old := c.chosen[k]
	c.chosen[k] = b
	c.stats.Switched++
	switch {
	case b < 0:
		// Dropped out this round.
		active--
		c.drop[k] = int32(t)
		c.retired[k] = c.buyer[k]
	case old < 0:
		// Re-entered: rising prices lifted a seller/trader bundle back
		// over its limit. Clear the stale drop round so the diagnostic
		// matches History.ActiveBidders.
		active++
		c.drop[k] = -1
		c.retired[k] = c.seller[k]
	}
	return active
}

// rescore re-scores class cl at round t once for its members (see the
// contract) and returns the updated active-bidder count.
//
//marketlint:allocfree
func (c *lane) rescore(cl int32, t, active int) int {
	cr := c.crec(cl)
	lo, hi := cr[cOrd], cr[cHi]
	rep := c.members[hi-1]
	first, top := c.first[rep], c.lim[c.first[rep]]
	pick, low, near := int32(-1), math.Inf(1), math.Inf(1)
	for i, s := range c.shape[first:c.first[rep+1]] {
		if cost := c.cost[s]; cost < low {
			pick, low, near = int32(i), cost, low
		}
	}
	for ; lo < hi && c.lim[c.first[c.members[lo]]] < low; lo++ {
		active = c.switchTo(c.members[lo], -1, t, active)
		c.stats.Dropped++
	}
	cr[cOrd] = lo
	if c.settle(cl, lo, hi); lo == hi || c.first[rep+1]-first == 1 {
		return active // a class of one bundle: its live members have it
	}
	x := max(math.Abs(top), math.Abs(low))
	tie := near <= top && near-low <= 2*(math.Nextafter(x, math.Inf(1))-x)
	if !tie && cr[cPick] == pick {
		return active
	}
	for _, k := range c.members[lo:hi] {
		b := c.first[k] + pick
		if tie {
			b = c.choose(k)
		}
		if b != c.chosen[k] {
			active = c.switchTo(k, b, t, active)
		}
	}
	if cr[cPick] = pick; tie {
		cr[cPick] = -1
	}
	return active
}

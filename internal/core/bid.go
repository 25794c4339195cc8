// Package core implements the paper's primary contribution: the simulated
// ascending clock auction of Section III that maps sealed bids into
// uniform, linear resource prices and fair allocations.
//
// A bid B_u = {Q_u, π_u} carries an XOR set of bundle vectors and a scalar
// limit. Bidder proxies G_u(p) (Equations 1–2) reveal each user's demand
// at the current price clock; the auctioneer raises prices on pools with
// positive excess demand (Algorithm 1) until excess demand is gone. The
// resulting (x, p) pair is a feasible point of the SYSTEM program in
// Section III.B, which CheckSystem verifies directly.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"clustermarket/internal/resource"
)

// Bid is one user's sealed bid B_u = {Q_u, π_u} (Section II).
type Bid struct {
	// User identifies the bidding user (an engineering team in the
	// paper's experiments).
	User string
	// Bundles is the indifference set Q_u: the user wants exactly one of
	// these R-component vectors. Positive components are quantities
	// demanded, negative components quantities offered.
	Bundles []resource.Vector
	// Limit is π_u: the maximum total payment the user will make (if
	// positive) or the minimum total amount it must receive, negated (if
	// negative). A seller willing to accept no less than 50 sets
	// Limit = −50.
	Limit float64
	// BundleLimits optionally assigns a distinct limit to each bundle —
	// the "vector π" extension Section II mentions ("does not
	// significantly change our results"). When set it must have one entry
	// per bundle; the proxy then demands the affordable bundle with the
	// largest surplus π_i − q_iᵀp instead of the globally cheapest one.
	// Limit is ignored in that case.
	BundleLimits []float64

	// rows is the bundles' packed form — the one form a booked bid keeps
	// (Bundles is then nil). A bid with Bundles set is read from them.
	rows bidRows
}

// Pack replaces Bundles by their packed rows — ascending pool index, ±0
// skipped, so a −0 component is booked as absent — which is the only
// form a booked bid carries from the door to the archive. It reads the
// vectors and keeps nothing of them, so packing a struct copy of a
// caller's bid is the defensive copy. It writes the bid: only the sole
// owner may call it, before the bid is shared.
func (b *Bid) Pack() {
	if len(b.Bundles) > 0 {
		b.rows, b.Bundles = packRows(b.Bundles), nil
	}
}

// PackSparse is Pack for bundles given as (pool, quantity) pairs rather
// than width-component vectors: bundle i is pairs ends[i−1]:ends[i], its
// pools distinct and below width, in any order; zero quantities are
// dropped. The arguments are copied.
func (b *Bid) PackSparse(width int, ends []int, pools []int32, qty []float64) {
	nnz := 0
	for _, v := range qty {
		if v != 0 {
			nnz++
		}
	}
	r := newRows(len(ends), nnz, int32(width))
	k, lo := 0, 0
	for i, hi := range ends {
		start := k
		for j := lo; j < hi; j++ {
			if qty[j] == 0 {
				continue
			}
			m := k // insertion keeps the row in ascending pool order
			for ; m > start && r.idx[m-1] > pools[j]; m-- {
				r.idx[m], r.val[m] = r.idx[m-1], r.val[m-1]
			}
			r.idx[m], r.val[m] = pools[j], qty[j]
			k++
		}
		r.idx[nnz+i] = int32(k)
		lo = hi
	}
	b.rows, b.Bundles = r, nil
}

// view returns the rows every stage reads: the booked form, or a private
// packing of Bundles when the bid still carries them.
func (b *Bid) view() bidRows {
	if len(b.Bundles) > 0 {
		return packRows(b.Bundles)
	}
	return b.rows
}

// NumBundles returns the size of the indifference set Q_u.
func (b *Bid) NumBundles() int {
	if len(b.Bundles) > 0 {
		return len(b.Bundles)
	}
	return int(b.rows.n)
}

// Bundle returns bundle i as an R-component vector: Bundles[i] itself
// while the bid carries them, a fresh vector rebuilt from the rows once
// it is booked. Treat it as read-only.
func (b *Bid) Bundle(i int) resource.Vector {
	if len(b.Bundles) > 0 {
		return b.Bundles[i]
	}
	return b.rows.dense(i)
}

// Row returns bundle i's non-zero components — pool indices ascending
// and the quantities beside them. The slices are shared: read-only. It
// is meant for booked bids, which it reads in place; a bid that still
// carries Bundles is packed afresh on every call.
//
//marketlint:allocfree
func (b *Bid) Row(i int) (pools []int32, qty []float64) {
	//marketlint:allow allocfree view packs only a bid not yet booked; booked rows are read in place
	rw := b.view()
	sb := rw.bundle(i)
	return sb.idx, sb.val
}

// PackedRows exposes a booked bid's packed form — the index slab (pool
// indices, then the bundle boundaries), the value slab, the bundle count
// and the common width — so a book can copy it into storage of its own.
// Read-only; all zero for a bid that still carries Bundles.
//
//marketlint:allocfree
func (b *Bid) PackedRows() (idx []int32, val []float64, n, width int32) {
	return b.rows.idx, b.rows.val, b.rows.n, b.rows.width
}

// AdoptRows is the inverse of PackedRows: the bid reads its bundles from
// the given slabs from now on, aliasing them — they must never change.
//
//marketlint:allocfree
func (b *Bid) AdoptRows(idx []int32, val []float64, n, width int32) {
	b.rows, b.Bundles = bidRows{idx: idx, val: val, n: n, width: width}, nil
}

// MarshalJSON writes the bid in its dense wire form — the exported
// fields, Bundles rebuilt from the rows when the bid is booked — so
// events, snapshots and their consumers see the bytes they always did.
func (b Bid) MarshalJSON() ([]byte, error) {
	w := struct {
		User         string
		Bundles      []resource.Vector
		Limit        float64
		BundleLimits []float64
	}{b.User, b.Bundles, b.Limit, b.BundleLimits}
	if n := b.NumBundles(); len(b.Bundles) == 0 && n > 0 {
		w.Bundles = make([]resource.Vector, n)
		for i := range w.Bundles {
			w.Bundles[i] = b.Bundle(i)
		}
	}
	return json.Marshal(w)
}

// LimitFor returns the limit governing bundle i: BundleLimits[i] when
// the vector-π extension is in use, the scalar Limit otherwise. Premium
// statistics (Equation 5) must be computed against the winning bundle's
// limit via this method — using the scalar Limit for a vector-limit bid
// measures γ_u against a number the proxy never consulted.
//
//marketlint:allocfree
func (b *Bid) LimitFor(i int) float64 {
	if len(b.BundleLimits) > 0 {
		return b.BundleLimits[i]
	}
	return b.Limit
}

// MaxLimit returns the largest limit across bundles (the scalar Limit
// when no vector is set). It is the budget-relevant exposure of the bid.
//
//marketlint:allocfree
func (b *Bid) MaxLimit() float64 {
	if len(b.BundleLimits) == 0 {
		return b.Limit
	}
	m := b.BundleLimits[0]
	for _, l := range b.BundleLimits[1:] {
		if l > m {
			m = l
		}
	}
	return m
}

// Class partitions bidders per Section III.C.3, which proves convergence
// when every participant is a pure buyer or pure seller and warns that
// traders can break it.
type Class int

const (
	// PureBuyer bids have only nonnegative bundle components.
	PureBuyer Class = iota
	// PureSeller bids have only nonpositive bundle components.
	PureSeller
	// Trader bids mix demanded and offered quantities, either within one
	// bundle or across bundles.
	Trader
)

func (c Class) String() string {
	switch c {
	case PureBuyer:
		return "buyer"
	case PureSeller:
		return "seller"
	default:
		return "trader"
	}
}

// Class classifies the bid. A bid whose bundles disagree in direction is a
// Trader even if each individual bundle is pure.
func (b *Bid) Class() Class {
	rw := b.view()
	var few [4]sparseBundle // keeps the usual few-cluster XOR off the heap
	return classOf(rw.appendBundles(few[:0]))
}

func classOf(bundles []sparseBundle) Class {
	dir := 0
	for _, sb := range bundles {
		d := resource.Vector(sb.val).PureDirection() // skipped zeros carry no sign
		switch {
		case d == 0:
			return Trader
		case dir == 0:
			dir = d
		case d != dir:
			return Trader
		}
	}
	if dir < 0 {
		return PureSeller
	}
	return PureBuyer
}

// Validate checks the bid against registry size r.
func (b *Bid) Validate(r int) error {
	rw := b.view()
	var few [4]sparseBundle
	return b.validate(r, &rw, rw.appendBundles(few[:0]))
}

// validate is every check of the dense scan at O(non-zero components),
// over the rows rw and their per-bundle views.
func (b *Bid) validate(r int, rw *bidRows, bundles []sparseBundle) error {
	if b.User == "" {
		return errors.New("core: bid has empty user")
	}
	if len(bundles) == 0 {
		return fmt.Errorf("core: bid %q has no bundles", b.User)
	}
	if math.IsNaN(b.Limit) || math.IsInf(b.Limit, 0) {
		return fmt.Errorf("core: bid %q has non-finite limit", b.User)
	}
	if len(b.BundleLimits) > 0 {
		if len(b.BundleLimits) != len(bundles) {
			return fmt.Errorf("core: bid %q has %d bundle limits for %d bundles",
				b.User, len(b.BundleLimits), len(bundles))
		}
		for i, l := range b.BundleLimits {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("core: bid %q bundle limit %d is non-finite", b.User, i)
			}
		}
	}
	for i, sb := range bundles {
		if n := rw.widthOf(i); n != r {
			return fmt.Errorf("core: bid %q bundle %d has %d components, want %d", b.User, i, n, r)
		}
		if resource.Vector(sb.val).Validate() != nil { // a skipped zero is finite
			// Rejection only: the dense scan words the error (pool index).
			return fmt.Errorf("core: bid %q bundle %d: %v", b.User, i, rw.dense(i).Validate())
		}
		if len(sb.idx) == 0 {
			return fmt.Errorf("core: bid %q bundle %d is empty", b.User, i)
		}
	}
	// Sanity-check limit direction: a pure seller asking to be *paid* a
	// positive amount must use a negative limit.
	if classOf(bundles) == PureSeller {
		for i := range bundles {
			if b.LimitFor(i) > 0 {
				return fmt.Errorf("core: pure seller %q has positive limit %g (minimum receipt is encoded as a negative limit)", b.User, b.LimitFor(i))
			}
		}
	}
	return nil
}

// BestAffordable returns the bundle the proxy demands at prices p: the
// affordable bundle (cost ≤ its limit) with the largest surplus
// limit − cost, ties breaking toward the lowest index. With a scalar
// limit this is exactly the paper's Equations (1)–(2): the cheapest
// bundle, if affordable. ok is false when every bundle is priced out.
func (b *Bid) BestAffordable(p resource.Vector) (idx int, ok bool) {
	rw := b.view()
	var few [4]sparseBundle
	idx = b.bestAffordable(rw.appendBundles(few[:0]), p)
	return idx, idx >= 0
}

// bestAffordable is the automated bidder proxy of Section III.C, G_u(p)
// of Equations (1) and (2), over the bid's bundle views: the index of
// the bundle it demands at prices p, or −1 when priced out. Each cost is
// a dot over the bundle's non-zero components. It is pure; ReferenceRun
// calls it for every bid every round, and the production clock runs the
// same scan over cached costs (lane.choose).
//
//marketlint:allocfree
func (b *Bid) bestAffordable(bundles []sparseBundle, p resource.Vector) int {
	best := -1
	bestSurplus := math.Inf(-1)
	for i, sb := range bundles {
		cost := sb.dot(p)
		lim := b.LimitFor(i)
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = i, s
		}
	}
	return best
}

// Cost returns q_iᵀp for bundle i — for a booked bid the sum over its
// row in ascending pool order, the arithmetic settlement's payment is.
func (b *Bid) Cost(i int, p resource.Vector) float64 {
	if len(b.Bundles) > 0 {
		return b.Bundles[i].Dot(p)
	}
	return b.rows.bundle(i).dot(p)
}

// Premium returns γ_u from Equation (5) of Section V.C: the relative gap
// between the bid limit and the settled payment, |π_u − x_uᵀp| / |x_uᵀp|.
// It returns 0 when the payment is (numerically) zero.
func Premium(limit, payment float64) float64 {
	if math.Abs(payment) < 1e-12 {
		return 0
	}
	return math.Abs(limit-payment) / math.Abs(payment)
}

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

	// packed is the bundles' packed form, built once by Pack before the
	// bid is shared and immutable afterwards; nil until then.
	packed *packedBid
}

// Pack builds the packed form of the bundles — ascending pool index, ±0
// skipped — that Validate, Class, NewProxy and NewAuction then read
// instead of scanning the R-length vectors again. It writes the bid, so
// only the bid's sole owner may call it, before the bid is published;
// Bundles must not change afterwards.
func (b *Bid) Pack() { b.packed = packBundles(b.Bundles) }

// Packed reports whether the bid carries a packed form.
func (b *Bid) Packed() bool { return b.packed != nil }

// Unpacked returns the bid without its packed form: b itself when it has
// none, else a shallow copy — b may be mid-read by a clock and is never
// written. Holders of settled bids swap this in to release the form.
func (b *Bid) Unpacked() *Bid {
	if b.packed == nil {
		return b
	}
	c := *b
	c.packed = nil
	return &c
}

// pack returns the packed form every stage reads: the one Pack built, or
// a private one when there is none (or Bundles were replaced since).
func (b *Bid) pack() *packedBid {
	if pk := b.packed; pk != nil && pk.of(b.Bundles) {
		return pk
	}
	return packBundles(b.Bundles)
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
func (b *Bid) Class() Class { return classOf(b.pack().bundles) }

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
func (b *Bid) Validate(r int) error { return b.validate(r, b.pack()) }

// validate is every check of the dense scan at O(non-zero components).
func (b *Bid) validate(r int, pk *packedBid) error {
	if b.User == "" {
		return errors.New("core: bid has empty user")
	}
	if len(b.Bundles) == 0 {
		return fmt.Errorf("core: bid %q has no bundles", b.User)
	}
	if math.IsNaN(b.Limit) || math.IsInf(b.Limit, 0) {
		return fmt.Errorf("core: bid %q has non-finite limit", b.User)
	}
	if len(b.BundleLimits) > 0 {
		if len(b.BundleLimits) != len(b.Bundles) {
			return fmt.Errorf("core: bid %q has %d bundle limits for %d bundles",
				b.User, len(b.BundleLimits), len(b.Bundles))
		}
		for i, l := range b.BundleLimits {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("core: bid %q bundle limit %d is non-finite", b.User, i)
			}
		}
	}
	for i, sb := range pk.bundles {
		if n := len(b.Bundles[i]); n != r {
			return fmt.Errorf("core: bid %q bundle %d has %d components, want %d", b.User, i, n, r)
		}
		if resource.Vector(sb.val).Validate() != nil { // a skipped zero is finite
			// Rejection only: the dense scan words the error (pool index).
			return fmt.Errorf("core: bid %q bundle %d: %v", b.User, i, b.Bundles[i].Validate())
		}
		if len(sb.idx) == 0 {
			return fmt.Errorf("core: bid %q bundle %d is empty", b.User, i)
		}
	}
	// Sanity-check limit direction: a pure seller asking to be *paid* a
	// positive amount must use a negative limit.
	if classOf(pk.bundles) == PureSeller {
		for i := range b.Bundles {
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
	best := -1
	bestSurplus := math.Inf(-1)
	for i, q := range b.Bundles {
		cost := q.Dot(p)
		lim := b.LimitFor(i)
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = i, s
		}
	}
	return best, best >= 0
}

// Proxy is the automated bidder proxy of Section III.C: it maps the
// current clock prices to the user's revealed demand via Equations (1)
// and (2). It reads the bid's packed bundles (Bid.pack) so each round
// costs O(non-zero components) instead of O(R) per bundle.
type Proxy struct {
	bid    *Bid
	sparse []sparseBundle
	// lastChoice caches the chosen bundle index for diagnostics; −1 when
	// the proxy has dropped out.
	lastChoice int
}

// NewProxy wraps a bid.
func NewProxy(b *Bid) *Proxy {
	return &Proxy{bid: b, lastChoice: -1, sparse: b.pack().bundles}
}

// choose returns the index of the bundle the proxy demands at prices p,
// or −1 when priced out — the sparse fast path of Bid.BestAffordable.
//
//marketlint:allocfree
func (px *Proxy) choose(p resource.Vector) int {
	best := -1
	bestSurplus := math.Inf(-1)
	for i, sb := range px.sparse {
		cost := sb.dot(p)
		lim := px.bid.LimitFor(i)
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = i, s
		}
	}
	px.lastChoice = best
	return best
}

// Bid returns the wrapped bid.
func (px *Proxy) Bid() *Bid { return px.bid }

// Demand evaluates G_u(p): the cheapest bundle q̂ ∈ Q_u at prices p if its
// cost q̂ᵀp is within the limit π_u, otherwise nil (the user demands
// nothing). Ties break toward the lowest bundle index so the auction is
// deterministic. With vector limits (BundleLimits) the proxy demands the
// affordable bundle with the largest surplus instead.
func (px *Proxy) Demand(p resource.Vector) resource.Vector {
	if best := px.choose(p); best >= 0 {
		return px.bid.Bundles[best]
	}
	return nil
}

// ChosenBundle returns the index into Bundles selected by the last Demand
// call, or −1 when the proxy demanded nothing.
func (px *Proxy) ChosenBundle() int { return px.lastChoice }

// CheapestCost returns min_{q∈Q_u} qᵀp, the left side of the winner/loser
// conditions (4) and (5) in SYSTEM.
func (b *Bid) CheapestCost(p resource.Vector) float64 {
	cost := math.Inf(1)
	for _, q := range b.Bundles {
		if c := q.Dot(p); c < cost {
			cost = c
		}
	}
	return cost
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

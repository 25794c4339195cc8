// Package invariant is the shared kernel of market correctness
// invariants. Every property the exchange's books must never violate —
// double-entry conservation, non-negative balances, commitment/exposure
// agreement, capacity-bounded settlement, reserve-floored clearing
// prices, winners paying their bundle's cost within their limit,
// at-most-one-leg XOR wins, and dense≡incremental engine
// equivalence — lives here exactly once, as a data-level check returning
// violations, plus convenience wrappers over a live Exchange or
// Federation.
//
// The scenario engine (internal/scenario) runs the kernel after every
// epoch; the conservation and stress tests in internal/market and
// internal/federation consume the same functions
// instead of carrying their own assertion copies. A new invariant added
// here is immediately enforced by every soak, stress test, and scenario
// in the repository.
//
// Every check except CheckLive assumes a quiescent market: no auction
// mid-settlement, no in-flight submissions. Mid-settlement reads can
// legitimately observe one order Won while its batchmate is still Open
// (see the Exchange doc comment); run the kernel between settlement
// waves, as the stress tests do after draining traffic. CheckLive is the
// subset a serving process may run at any time.
package invariant

import (
	"fmt"
	"math"
	"sort"

	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// Eps is the default numeric tolerance. Settlement arithmetic is float64
// sums over at most a few thousand entries, so anything beyond 1e-6 is a
// real conservation failure, not rounding.
const Eps = 1e-6

// Violation is one broken invariant, identified by a stable kebab-case
// name (for exit-code mapping and log grepping) plus a human detail.
type Violation struct {
	// Invariant names the broken property, e.g. "ledger-balanced".
	Invariant string
	// Detail says where and by how much.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violatef(name, format string, args ...any) Violation {
	return Violation{Invariant: name, Detail: fmt.Sprintf(format, args...)}
}

// Reporter is the subset of *testing.T the test helpers need.
type Reporter interface {
	Helper()
	Errorf(format string, args ...any)
}

// Require reports every violation through t, prefixed with label.
//
//marketlint:oracle TestRequireForwardsViolations
func Require(t Reporter, label string, vs []Violation) {
	t.Helper()
	for _, v := range vs {
		t.Errorf("%s: %s", label, v)
	}
}

// ---------------------------------------------------------------------
// Data-level checks. Each takes plain snapshots so tests can exercise
// the checker itself against synthetic books.
// ---------------------------------------------------------------------

// CheckLedgerBalanced verifies double-entry conservation: the whole
// ledger sums to zero, and so does every per-auction batch (a balanced
// total can hide two auctions whose errors cancel).
func CheckLedgerBalanced(entries []market.LedgerEntry, eps float64) []Violation {
	var vs []Violation
	total := 0.0
	perAuction := make(map[int]float64)
	for _, le := range entries {
		total += le.Amount
		perAuction[le.Auction] += le.Amount
	}
	if math.Abs(total) > eps {
		vs = append(vs, violatef("ledger-balanced", "ledger sums to %g, want 0", total))
	}
	auctions := make([]int, 0, len(perAuction))
	for a := range perAuction {
		auctions = append(auctions, a)
	}
	sort.Ints(auctions)
	for _, a := range auctions {
		if s := perAuction[a]; math.Abs(s) > eps {
			vs = append(vs, violatef("ledger-balanced", "auction %d entries sum to %g, want 0", a, s))
		}
	}
	return vs
}

// CheckBalancesNonNegative verifies no account was driven below zero:
// the exchange commits budget at submission exactly so settlement can
// never overdraw.
func CheckBalancesNonNegative(balances map[string]float64, eps float64) []Violation {
	var vs []Violation
	for _, team := range sortedKeys(balances) {
		if bal := balances[team]; bal < -eps {
			vs = append(vs, violatef("non-negative-balance", "account %q balance %g < 0", team, bal))
		}
	}
	return vs
}

// CheckCommitmentsMatchExposure verifies the O(1) incremental budget
// commitments agree with the open book they cache: per team, the
// committed amount equals the summed worst-case exposure (MaxLimit > 0)
// of its Open orders.
func CheckCommitmentsMatchExposure(commitments map[string]float64, orders []*market.Order, eps float64) []Violation {
	exposure := make(map[string]float64)
	for _, o := range orders {
		if o.Status != market.Open {
			continue
		}
		if exp := o.Bid.MaxLimit(); exp > 0 {
			exposure[o.Team] += exp
		}
	}
	var vs []Violation
	teams := sortedKeys(commitments)
	for t := range exposure {
		if _, ok := commitments[t]; !ok {
			teams = append(teams, t)
		}
	}
	sort.Strings(teams)
	for _, team := range teams {
		if got, want := commitments[team], exposure[team]; math.Abs(got-want) > eps {
			vs = append(vs, violatef("commitments-match-exposure",
				"team %q committed %g, open-order exposure %g", team, got, want))
		}
	}
	return vs
}

// CheckWinsWithinCapacity verifies that, for every settled auction, the
// total quantity won per pool stays within capacity: the operator can
// only sell resources the fleet physically has.
func CheckWinsWithinCapacity(reg *resource.Registry, capacity resource.Vector, orders []*market.Order, eps float64) []Violation {
	won := make(map[int]resource.Vector)
	for _, o := range orders {
		if o.Status != market.Won {
			continue
		}
		v, ok := won[o.Auction]
		if !ok {
			v = reg.Zero()
			won[o.Auction] = v
		}
		pools, qty := o.Grant()
		for k, q := range qty {
			if q > 0 {
				v[pools[k]] += q
			}
		}
	}
	var vs []Violation
	auctions := make([]int, 0, len(won))
	for a := range won {
		auctions = append(auctions, a)
	}
	sort.Ints(auctions)
	for _, a := range auctions {
		for i, q := range won[a] {
			if q > capacity[i]+eps {
				vs = append(vs, violatef("wins-within-capacity",
					"auction %d won %g of %s, capacity %g", a, q, reg.Pool(i), capacity[i]))
			}
		}
	}
	return vs
}

// CheckClearingAboveReserve verifies every converged auction settled at
// prices componentwise at or above its reserve vector: the clock starts
// at the reserve and only ascends, so a clearing price below it means a
// corrupted record or a broken clock.
func CheckClearingAboveReserve(history []*market.AuctionRecord, eps float64) []Violation {
	var vs []Violation
	for _, rec := range history {
		if !rec.Converged {
			continue
		}
		for i := range rec.Prices {
			if rec.Prices[i] < rec.Reserve[i]-eps {
				vs = append(vs, violatef("clearing-above-reserve",
					"auction %d pool %d cleared at %g below reserve %g",
					rec.Number, i, rec.Prices[i], rec.Reserve[i]))
			}
		}
	}
	return vs
}

// CheckSettlementEconomics verifies the paper's settlement rule on the
// archive (SYSTEM constraints (3) and (4), Section III.B): every Won
// order names one of its own bundles, paid no more than the limit that
// governs that bundle, and paid exactly that bundle's cost at the uniform
// clearing prices of its auction — bit for bit, since the payment was
// computed as the same sum over the same row.
//
// The price check is per auction: of the orders Won under number N, at
// least the record's Settled count must match its prices. The slack is
// the crash-consistency contract's — a settlement wave interrupted by a
// journal failure leaves its durable prefix of winners in the book, and
// the clock that next claims number N clears at other prices — so only
// mismatches no interrupted wave can account for are reported. Orders
// whose auction has no record (the wave never completed) are checked
// against their limit alone.
func CheckSettlementEconomics(orders []*market.Order, history []*market.AuctionRecord, eps float64) []Violation {
	var vs []Violation
	records := make(map[int]*market.AuctionRecord, len(history))
	for _, rec := range history {
		records[rec.Number] = rec
	}
	won := make(map[int]int)
	offPrice := make(map[int][]int)
	for _, o := range orders {
		if o.Status != market.Won {
			continue
		}
		if n := o.Bid.NumBundles(); o.Bundle < 0 || o.Bundle >= n {
			vs = append(vs, violatef("won-bundle-of-bid", "order %d won bundle %d, bid has %d", o.ID, o.Bundle, n))
			continue
		}
		if lim := o.Bid.LimitFor(o.Bundle); o.Payment > lim+eps {
			vs = append(vs, violatef("payment-within-limit",
				"order %d paid %g for bundle %d, limit %g", o.ID, o.Payment, o.Bundle, lim))
		}
		won[o.Auction]++
		if rec := records[o.Auction]; rec != nil && o.Payment != o.Bid.Cost(o.Bundle, rec.Prices) {
			offPrice[o.Auction] = append(offPrice[o.Auction], o.ID)
		}
	}
	auctions := make([]int, 0, len(offPrice))
	for a := range offPrice {
		auctions = append(auctions, a)
	}
	sort.Ints(auctions)
	for _, a := range auctions {
		if slack := won[a] - records[a].Settled; len(offPrice[a]) > slack {
			vs = append(vs, violatef("payment-at-clearing-prices",
				"auction %d settled %d orders, but of its %d winners orders %v did not pay their bundle's cost at its prices",
				a, records[a].Settled, won[a], offPrice[a]))
		}
	}
	return vs
}

// CheckOpenCount verifies the per-stripe open counters agree with a
// status scan of the book.
func CheckOpenCount(count int, orders []*market.Order) []Violation {
	scan := 0
	for _, o := range orders {
		if o.Status == market.Open {
			scan++
		}
	}
	if count != scan {
		return []Violation{violatef("open-count", "OpenOrderCount = %d, status scan says %d", count, scan)}
	}
	return nil
}

// CheckLegsAtMostOneWin verifies the federation's XOR coordination
// invariant: no federated order ever wins more than one regional leg,
// a Won order won exactly one, and terminal orders carry no active leg.
func CheckLegsAtMostOneWin(orders []*federation.FedOrder) []Violation {
	var vs []Violation
	for _, fo := range orders {
		won := 0
		for _, l := range fo.Legs {
			if l.Status == market.Won {
				won++
			}
		}
		if won > 1 {
			vs = append(vs, violatef("xor-at-most-one-leg", "order %d won %d legs", fo.ID, won))
		}
		switch fo.Status {
		case market.Won:
			if won != 1 {
				vs = append(vs, violatef("xor-at-most-one-leg",
					"order %d is Won with %d winning legs", fo.ID, won))
			}
		case market.Open:
			// Routing in progress; Active may legitimately point anywhere.
		default:
			if fo.Active != -1 {
				vs = append(vs, violatef("terminal-order-inactive",
					"order %d is %s but still has active leg %d", fo.ID, fo.Status, fo.Active))
			}
		}
	}
	return vs
}

// CheckEngineEquivalence runs the same bid set through the production
// clock (incremental lanes) and through core.ReferenceRun (the dense
// literal Algorithm 1) and verifies the results are bit-identical — the
// spot form of the differential property the production clock's design
// guarantees. Non-convergence must agree too: both must stop at the same
// round with the same partial state.
func CheckEngineEquivalence(reg *resource.Registry, bids []*core.Bid, cfg core.Config) []Violation {
	var inc *core.Result
	a, incErr := core.NewAuction(reg, bids, cfg)
	if incErr == nil {
		inc, incErr = a.Run()
	}
	den, denErr := core.ReferenceRun(reg, bids, cfg)
	if (incErr == nil) != (denErr == nil) {
		return []Violation{violatef("engine-equivalence",
			"incremental err=%v, dense err=%v", incErr, denErr)}
	}
	if inc == nil || den == nil {
		if inc != den {
			return []Violation{violatef("engine-equivalence",
				"one engine returned a result, the other nil (inc=%v dense=%v)", inc != nil, den != nil)}
		}
		return nil
	}
	var vs []Violation
	fail := func(format string, args ...any) {
		vs = append(vs, violatef("engine-equivalence", format, args...))
	}
	if inc.Converged != den.Converged || inc.Rounds != den.Rounds {
		fail("converged/rounds: incremental (%v, %d) vs dense (%v, %d)",
			inc.Converged, inc.Rounds, den.Converged, den.Rounds)
	}
	if !vectorsEqual(inc.Prices, den.Prices) {
		fail("final prices differ: %v vs %v", inc.Prices, den.Prices)
	}
	for i := range bids {
		if inc.IsWinner(i) != den.IsWinner(i) {
			fail("bid %d: incremental winner=%v, dense winner=%v", i, inc.IsWinner(i), den.IsWinner(i))
			continue
		}
		if inc.Payments[i] != den.Payments[i] {
			fail("bid %d: payments differ: %v vs %v", i, inc.Payments[i], den.Payments[i])
		}
		if inc.ChosenBundle[i] != den.ChosenBundle[i] {
			fail("bid %d: chosen bundle %d vs %d", i, inc.ChosenBundle[i], den.ChosenBundle[i])
		}
	}
	return vs
}

func vectorsEqual(a, b resource.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Object-level wrappers.
// ---------------------------------------------------------------------

// CheckLive runs the part of the exchange-level kernel that holds while
// settlements are in flight: the ledger balances and no team balance is
// negative. The rest of CheckExchange is quiescent-only (a settling
// batch can show one order Won while its batchmate is still Open), so a
// health probe on a serving exchange runs this subset. The balance scan
// covers team accounts only: the operator's balance is the market's net
// position and legitimately goes negative when budget disbursements
// (which debit it) outrun settlement revenue.
func CheckLive(ex *market.Exchange) []Violation {
	vs := CheckLedgerBalanced(ex.Ledger(), Eps)
	teams := ex.Teams()
	balances := make(map[string]float64, len(teams))
	for _, team := range teams {
		if bal, err := ex.Balance(team); err == nil {
			balances[team] = bal
		}
	}
	return append(vs, CheckBalancesNonNegative(balances, Eps)...)
}

// CheckExchange runs the full exchange-level kernel over a quiescent
// exchange: CheckLive first, then the quiescent-only checks.
func CheckExchange(ex *market.Exchange) []Violation {
	vs := CheckLive(ex)
	orders := ex.Orders()
	vs = append(vs, CheckCommitmentsMatchExposure(ex.BuyCommitments(), orders, Eps)...)
	vs = append(vs, CheckWinsWithinCapacity(ex.Registry(), ex.Fleet().CapacityVector(ex.Registry()), orders, Eps)...)
	history := ex.History()
	vs = append(vs, CheckClearingAboveReserve(history, Eps)...)
	vs = append(vs, CheckSettlementEconomics(orders, history, Eps)...)
	vs = append(vs, CheckOpenCount(ex.OpenOrderCount(), orders)...)
	return vs
}

// CheckFederation runs the kernel over every member region, then the
// cross-region routing invariants: XOR legs win at most once, and a Won
// order's recorded payment agrees with the winning regional book.
func CheckFederation(f *federation.Federation) []Violation {
	var vs []Violation
	for _, r := range f.Regions() {
		for _, v := range CheckExchange(r.Exchange()) {
			v.Detail = "region " + r.Name() + ": " + v.Detail
			vs = append(vs, v)
		}
	}
	orders := f.Orders()
	vs = append(vs, CheckLegsAtMostOneWin(orders)...)
	return append(vs, CheckWinningLegs(orders, func(name string) *market.Exchange {
		if r := f.Region(name); r != nil {
			return r.Exchange()
		}
		return nil
	})...)
}

// CheckWinningLegs verifies that every Won order agrees with the regional
// book its winning leg names: exchange returns that region's book (nil
// for a region the federation does not have), which must hold the leg's
// order as Won, paid the order's payment.
func CheckWinningLegs(orders []*federation.FedOrder, exchange func(region string) *market.Exchange) []Violation {
	var vs []Violation
	for _, fo := range orders {
		if fo.Status != market.Won {
			continue
		}
		for _, l := range fo.Legs {
			if l.Status != market.Won {
				continue
			}
			ex := exchange(l.Region)
			if ex == nil {
				vs = append(vs, violatef("winning-leg-consistent",
					"order %d won in unknown region %q", fo.ID, l.Region))
				continue
			}
			o, err := ex.Order(l.OrderID)
			if err != nil {
				vs = append(vs, violatef("winning-leg-consistent",
					"order %d winning leg %d missing from region %q book: %v", fo.ID, l.OrderID, l.Region, err))
				continue
			}
			if o.Status != market.Won || o.Payment != fo.Payment {
				vs = append(vs, violatef("winning-leg-consistent",
					"order %d: federation says Won/%g, region %q book says %s/%g",
					fo.ID, fo.Payment, l.Region, o.Status, o.Payment))
			}
		}
	}
	return vs
}

// RequireExchange runs CheckExchange and reports violations through t.
//
//marketlint:oracle TestLedgerConservationRandomized
func RequireExchange(t Reporter, label string, ex *market.Exchange) {
	t.Helper()
	Require(t, label, CheckExchange(ex))
}

// RequireFederation runs CheckFederation and reports violations through t.
//
//marketlint:oracle TestFederatedLedgerConservation
func RequireFederation(t Reporter, label string, f *federation.Federation) {
	t.Helper()
	Require(t, label, CheckFederation(f))
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

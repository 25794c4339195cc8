package core

import "clustermarket/internal/resource"

// ReferenceRun is the oracle the production clock is held to: the
// literal Algorithm 1 loop on the whole market, one price vector, every
// proxy re-scored at the new prices each round and the excess-demand
// vector rebuilt from scratch in input order. It is quadratic in
// practice and nothing selects it at run time; the differential tests
// and invariant.CheckEngineEquivalence compare Auction.Run against it,
// bit for bit, on every Result field and on the error. It leaves Held
// empty: a lane is held exactly when ReferenceRun on that lane's bids
// alone runs out, which is how the tests check Held.
func ReferenceRun(reg *resource.Registry, bids []*Bid, cfg Config) (*Result, error) {
	a, err := NewAuction(reg, bids, cfg)
	if err != nil {
		return nil, err
	}
	// Its own views and vectors: the oracle shares nothing with the
	// production clock but validation, the demand scan of
	// Bid.BestAffordable and the Result's bookkeeping. Each bid's bundle
	// views are cut once; it clocks res.Prices (at the reserve) and
	// res.ChosenBundle — the bundle each proxy demands this round, −1
	// when priced out — in place.
	views := make([][]sparseBundle, len(a.bids))
	for i, b := range a.bids {
		views[i] = b.rows.appendBundles(nil)
	}
	res := a.newResult()
	p, choices := res.Prices, res.ChosenBundle
	z, step := make(resource.Vector, len(p)), make(resource.Vector, len(p))
	pay := func() {
		for i, c := range choices {
			if c >= 0 {
				res.Payments[i] = views[i][c].dot(p)
			}
		}
	}

	for t := 0; t < a.cfg.MaxRounds; t++ {
		active := 0
		z.SetZero()
		for i, b := range a.bids {
			c := b.bestAffordable(views[i], p)
			choices[i] = c
			if c >= 0 {
				active++
				views[i][c].addInto(z)
				// An active bidder is not dropped — clear any stale drop
				// round from an earlier priced-out stretch (sellers and
				// traders re-enter as prices rise).
				res.DropRound[i] = -1
			} else if res.DropRound[i] < 0 {
				res.DropRound[i] = t
			}
		}
		if a.cfg.RecordHistory {
			res.History = appendRound(res.History, t, p, z, active)
		}
		if z.AllNonPositive(0) {
			res.Converged = true
			res.Rounds = t + 1
			pay()
			return res, nil
		}
		a.cfg.Policy.StepInto(step, z)
		p.AddInto(step)
	}

	res.Converged = false
	res.Rounds = a.cfg.MaxRounds
	pay()
	return res, ErrNoConvergence
}

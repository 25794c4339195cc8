package market

import (
	"errors"
	"fmt"

	"clustermarket/internal/cluster"
)

// DisbursementPolicy decides how a pool of new budget dollars is split
// among team accounts. Section IV.A notes that the bounded-ratio property
// of the reserve curves "is strongly related to the strategy used for
// disbursement of initial budget dollars among bidders" but leaves the
// strategy itself out of scope; these are the three obvious candidates.
type DisbursementPolicy int

const (
	// EqualShares splits the pool evenly across teams.
	EqualShares DisbursementPolicy = iota
	// ProportionalToQuota splits in proportion to each team's current
	// granted quota (incumbency weighting: teams holding more resources
	// receive more budget, keeping the endowment roughly proportional to
	// footprint).
	ProportionalToQuota
	// ProportionalToUsage splits in proportion to each team's live
	// scheduled usage in the fleet.
	ProportionalToUsage
)

func (p DisbursementPolicy) String() string {
	switch p {
	case EqualShares:
		return "equal-shares"
	case ProportionalToQuota:
		return "proportional-to-quota"
	case ProportionalToUsage:
		return "proportional-to-usage"
	default:
		return fmt.Sprintf("DisbursementPolicy(%d)", int(p))
	}
}

// usageWeight reduces a Usage to a scalar for proportional splits, using
// the exchange's fixed-price cost weights so a CPU core and a GB of RAM
// are commensurable.
func usageWeight(u cluster.Usage) float64 {
	return u.CPU*1.0 + u.RAM*0.25 + u.Disk*2.0
}

// Disburse credits `total` new budget dollars across the non-operator
// accounts per the policy. Weights that sum to zero (for instance, no
// quota held anywhere under ProportionalToQuota) fall back to equal
// shares. Every credit lands in the billing ledger against the operator
// account, so the ledger stays balanced.
func (e *Exchange) Disburse(policy DisbursementPolicy, total float64) error {
	if !positiveFinite(total) {
		return fmt.Errorf("market: disbursement must be positive and finite, got %g", total)
	}
	// Exclude the settlement phase only: the weight scan reads the quota
	// ledger, which RunAuction's settlement writes. Taking settleMu (not
	// auctionMu) means a disbursement waits out a settlement, not an
	// entire clock run.
	e.settleMu.Lock()
	defer e.settleMu.Unlock()
	teams := e.Teams()
	if len(teams) == 0 {
		return errors.New("market: no team accounts")
	}

	weights := make([]float64, len(teams))
	var sum float64
	for i, team := range teams {
		switch policy {
		case ProportionalToQuota:
			for _, cl := range e.fleet.ClusterNames() {
				weights[i] += usageWeight(e.fleet.Quotas().Granted(team, cl))
			}
		case ProportionalToUsage:
			for _, cl := range e.fleet.ClusterNames() {
				if c := e.fleet.Cluster(cl); c != nil {
					weights[i] += usageWeight(c.TeamUsage()[team])
				}
			}
		case EqualShares:
			weights[i] = 1
		default:
			return fmt.Errorf("market: unknown disbursement policy %v", policy)
		}
		sum += weights[i]
	}
	if sum == 0 {
		for i := range weights {
			weights[i] = 1
		}
		sum = float64(len(weights))
	}

	// The event records the *resolved* per-team credits — not the policy
	// inputs — so replay never re-reads quotas or usage.
	credits := make([]Credit, 0, len(teams))
	for i, team := range teams {
		amount := total * weights[i] / sum
		if amount == 0 {
			continue
		}
		credits = append(credits, Credit{Team: team, Amount: amount})
	}
	ev := &Event{Kind: EvDisbursed, Policy: policy.String(), Auction: e.AuctionCount(), Credits: credits}
	if err := e.emitEvent(ev); err != nil {
		return err
	}
	return e.applyDisbursed(ev)
}

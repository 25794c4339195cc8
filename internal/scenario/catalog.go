package scenario

import (
	"fmt"
	"math"
	"sort"

	"clustermarket/internal/fault"
)

// sellerFraction is paper-pilot's chance that a team in a congested home
// cluster offers quota back in an epoch (Section V.B).
const sellerFraction = 0.5

// Catalog returns the named scenarios, sorted by name. Each entry is a
// fresh value: scenarios carry no state, but callers are free to tweak
// the returned copies.
//
// The catalog (see DESIGN.md, "Adding a scenario", for the how-to-add
// guide):
//
//	adaptive-learning — static demand, adaptive premium shading; the
//	    Table I learning curve: median premiums fall epoch over epoch.
//	churn             — a quarter of the bidder population is replaced
//	    every epoch, with periodic budget refresh cycles.
//	crash-recovery    — steady demand with budget refreshes and a
//	    mid-run demand ebb; run with Config.CrashEpoch on a journaled
//	    backend, the kill-and-resurrect run must fingerprint-match the
//	    uninterrupted one.
//	disk-fault        — scripted ENOSPC/EIO/short-write/latency bursts
//	    on the journal mid-run; every burst heals within the bounded
//	    inline retries, so a journaled run must fingerprint-match the
//	    fault-free run bit-identically.
//	diurnal           — sinusoidal demand waves with load ebbing in the
//	    troughs; prices must track the congestion cycle.
//	flash-crowd       — a mid-run burst of demand pinned to the hottest
//	    pool, paying heavy premiums, then subsiding.
//	paper-pilot       — the paper's pilot (Section V): adaptive bidders
//	    on the hot-to-cold topology; teams in congested clusters offer
//	    part of the quota they won back, and from the second epoch trade
//	    it for the cheapest cluster's. The figures read its report.
//	partition-storm   — transient region partitions: routing calls and
//	    settlement rounds fail then heal, gossip stalls; the healed run
//	    must fingerprint-match the fault-free run.
//	region-outage     — region r2 goes dark mid-run and rejoins; orders
//	    waiting on it settle after the rejoin.
//	trader-storm      — hostile cycling trader pairs drive clock
//	    non-convergence storms mid-run; the livelock guard must retire
//	    the poisoned lanes' orders, the other lanes settle, and every
//	    invariant must hold throughout.
func Catalog() []*Scenario {
	list := []*Scenario{
		{
			Name:        "diurnal",
			Description: "sinusoidal demand waves; load placed at the peaks ebbs in the troughs",
			Epochs:      10,
			Intensity: func(epoch int) float64 {
				// Period-8 wave between 0.3 and 1.5.
				return 0.9 + float64(0.6*math.Sin(2*math.Pi*float64(epoch)/8)) // rounded before the add (make fma-check)
			},
			Evict: func(epoch int) float64 {
				// The ebb: drop placed demand while the wave is low.
				if math.Sin(2*math.Pi*float64(epoch)/8) < -0.3 {
					return 0.35
				}
				return 0
			},
		},
		{
			Name:        "flash-crowd",
			Description: "a mid-run burst of demand pinned to the hottest pool, then subsiding",
			Epochs:      9,
			HotFocus: func(epoch int) float64 {
				if epoch >= 3 && epoch <= 5 {
					return 0.8
				}
				return 0.05
			},
		},
		{
			Name:        "churn",
			Description: "bidder churn with budget refresh cycles: a quarter of the population is new every epoch",
			Epochs:      10,
			Churn: func(epoch int) float64 {
				if epoch == 0 {
					return 0
				}
				return 0.25
			},
			BudgetRefresh: func(epoch int) float64 {
				// Refresh every third epoch, as a quota period rollover.
				if epoch > 0 && epoch%3 == 0 {
					return 20000
				}
				return 0
			},
		},
		{
			Name:        "region-outage",
			Description: "region r2 goes dark mid-run and rejoins; waiting orders settle after the rejoin",
			Epochs:      9,
			Down: func(epoch int, regions []string) []string {
				if len(regions) < 2 {
					return nil
				}
				if epoch >= 3 && epoch <= 5 {
					return []string{regions[1]}
				}
				return nil
			},
		},
		{
			Name: "crash-recovery",
			Description: "mid-run power loss on a journaled backend: killed before a settlement wave, " +
				"resurrected from the WAL, and required to continue bit-identically",
			Epochs: 8,
			BudgetRefresh: func(epoch int) float64 {
				if epoch > 0 && epoch%3 == 0 {
					return 15000
				}
				return 0
			},
			Evict: func(epoch int) float64 {
				// An ebb right at the canonical crash epoch, so recovery has
				// to reconstruct placed demand before evicting from it.
				if epoch == 4 {
					return 0.3
				}
				return 0
			},
		},
		{
			Name:        "adaptive-learning",
			Description: "adaptive bidders shade premiums from past results — the Table I learning curve",
			Epochs:      10,
			Adaptive:    true,
		},
		{
			Name: "disk-fault",
			Description: "scripted disk-fault bursts (ENOSPC, EIO, short writes, fsync latency) against every " +
				"journal write site; each burst heals within the bounded inline retries, so the run must " +
				"fingerprint-match the fault-free run",
			Epochs: 8,
			BudgetRefresh: func(epoch int) float64 {
				// A refresh cycle keeps disbursement appends in the line of
				// fire alongside submit and settlement appends.
				if epoch > 0 && epoch%3 == 0 {
					return 15000
				}
				return 0
			},
			Evict: func(epoch int) float64 {
				// A mid-run ebb puts eviction appends under fault too.
				if epoch == 5 {
					return 0.25
				}
				return 0
			},
			// Counts stay ≤3 (under the 1+4 bounded inline append attempts)
			// so every burst heals invisibly — the fingerprint-identity
			// contract this scenario exists to enforce.
			Faults: func(epoch int, regions []string) []fault.Window {
				switch epoch {
				case 2:
					return []fault.Window{{Op: fault.OpDiskWrite, Kind: fault.ENOSPC, Count: 3}}
				case 3:
					return []fault.Window{{Op: fault.OpDiskFsync, Kind: fault.EIO, Count: 2}}
				case 4:
					return []fault.Window{
						{Op: fault.OpDiskWrite, Kind: fault.ShortWrite, Count: 2},
						{Op: fault.OpDiskFsync, Kind: fault.Latency, Count: 3},
					}
				case 5:
					return []fault.Window{
						{Op: fault.OpDiskRename, Kind: fault.EIO, Count: 1},
						{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 2},
					}
				}
				return nil
			},
		},
		{
			Name: "partition-storm",
			Description: "transient region partitions: routing calls and settlement rounds fail then heal, " +
				"gossip stalls; the healed run must fingerprint-match the fault-free run",
			Epochs: 9,
			// Counts stay ≤2, under the backend's retry budget
			// (faultRetries), so scripted partitions heal invisibly: every
			// failed call is retried until it goes through.
			Faults: func(epoch int, regions []string) []fault.Window {
				if len(regions) < 2 {
					return nil
				}
				last := regions[len(regions)-1]
				switch epoch {
				case 2:
					return []fault.Window{{Op: fault.OpRegionOrder, Scope: regions[1], Kind: fault.Unreachable, Count: 2}}
				case 4:
					return []fault.Window{
						{Op: fault.OpRegionSettle, Scope: last, Kind: fault.Unreachable, Count: 2},
						{Op: fault.OpRegionOrder, Scope: regions[0], Kind: fault.Latency, Count: 2},
					}
				case 6:
					return []fault.Window{
						{Op: fault.OpRegionGossip, Scope: regions[1], Kind: fault.Latency, Count: 2},
						{Op: fault.OpRegionSettle, Scope: regions[1], Kind: fault.Unreachable, Count: 1},
					}
				}
				return nil
			},
		},
		{
			Name: "paper-pilot",
			Description: "the paper's pilot: adaptive bidders on the hot-to-cold topology, and teams in congested " +
				"clusters that sell part of what they won back; Figures 6–7, Table I and migration are views of its report",
			Epochs:   4,
			Adaptive: true,
			Sell:     func(int) float64 { return sellerFraction },
		},
		{
			Name:        "trader-storm",
			Description: "hostile cycling trader pairs force clock non-convergence storms mid-run",
			Epochs:      10,
			TraderPairs: func(epoch int) int {
				if epoch >= 3 && epoch <= 5 {
					return 1
				}
				return 0
			},
		},
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	return list
}

// Lookup returns the named catalog scenario.
func Lookup(name string) (*Scenario, error) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q", name)
}

// Names lists the catalog scenario names in sorted order.
func Names() []string {
	var out []string
	for _, sc := range Catalog() {
		out = append(out, sc.Name)
	}
	return out
}

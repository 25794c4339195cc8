package market

import (
	"cmp"
	"slices"
	"sync"
)

// DefaultShards is the stripe count an Exchange uses when Config.Shards
// is zero. Eight stripes keep lock contention negligible up to the
// mid-size multicore boxes the web tier runs on while costing nothing on
// small machines; larger fleets can raise Config.Shards.
const DefaultShards = 8

// orderShard is one stripe of the order book. Orders are striped by ID:
// the order with ID k lives in shard k % nshards at slot k / nshards, so
// lookups are O(1) and submits in different stripes never contend.
type orderShard struct {
	mu sync.RWMutex
	// orders[j] holds the order with ID j*nshards + shardIndex. IDs are
	// allocated under mu from the append position, so slots are dense and
	// never nil.
	orders []*Order
	// open is the stripe's claim list: a lazily compacted superset of the
	// stripe's Status==Open orders, in ID order. Submit appends; cancels
	// and settlements leave their terminal orders in place to be dropped
	// by the next claimBatch compaction — so neither path pays a scan.
	open []*Order
	// openCount is the exact number of Status==Open orders in the stripe,
	// maintained on every status transition so OpenOrderCount is O(shards)
	// instead of a book scan.
	openCount int
}

// accountShard is one stripe of the account book, striped by team name.
type accountShard struct {
	mu       sync.RWMutex
	balances map[string]float64
	// openBuy is each team's summed positive limits over open orders —
	// maintained incrementally so Submit's budget check is O(1).
	openBuy map[string]float64
	// labels holds, per account and product, the one copy of the team
	// name and of the bid user every order of that pair shares — an order
	// would otherwise carry two strings of its own.
	labels map[labelKey]orderLabel
}

type labelKey struct{ team, product string }

type orderLabel struct{ team, user string }

// labelLocked returns the shared team name and bid user — team/product,
// or the team itself without a product — for an order of the account.
// Only existing accounts are remembered, so a stream of unknown team
// names cannot grow the map. The caller holds mu.
func (as *accountShard) labelLocked(team, product string) (string, string) {
	key := labelKey{team, product}
	if l, ok := as.labels[key]; ok {
		return l.team, l.user
	}
	user := team
	if product != "" {
		user = team + "/" + product
	}
	if _, ok := as.balances[team]; ok {
		as.labels[key] = orderLabel{team, user}
	}
	return team, user
}

// orderShardFor returns the stripe holding order id, or nil for a
// negative id.
//
//marketlint:allocfree
func (e *Exchange) orderShardFor(id int) *orderShard {
	if id < 0 {
		return nil
	}
	return &e.orderShards[id%len(e.orderShards)]
}

// accountShardFor returns the stripe holding the team's account (FNV-1a
// over the name).
//
//marketlint:allocfree
func (e *Exchange) accountShardFor(team string) *accountShard {
	h := uint32(2166136261)
	for i := 0; i < len(team); i++ {
		h = (h ^ uint32(team[i])) * 16777619
	}
	return &e.accountShards[h%uint32(len(e.accountShards))]
}

// liveOrder returns the live (internal) order with the given id, or nil.
func (e *Exchange) liveOrder(id int) *Order {
	os := e.orderShardFor(id)
	if os == nil {
		return nil
	}
	j := id / len(e.orderShards)
	os.mu.RLock()
	defer os.mu.RUnlock()
	if j >= len(os.orders) {
		return nil
	}
	return os.orders[j]
}

// sortOrdersByID puts a cross-shard gather back into global ID order —
// for serial traffic, exactly the submission order the unsharded book
// used, which keeps batch assembly and display paths deterministic. IDs
// are unique and never change, and the sort is typed: no reflection on
// the paths bidders poll.
func sortOrdersByID(out []*Order) {
	slices.SortFunc(out, func(a, b *Order) int { return cmp.Compare(a.ID, b.ID) })
}

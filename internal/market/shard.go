package market

import (
	"math"
	"sync"

	"clustermarket/internal/slab"
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
	// slots[j] names the order with ID j*nshards + shardIndex: an index
	// into live while it is open, archivedBit and a position in recs once
	// it is terminal. IDs are allocated under mu from the append position,
	// so slots are dense.
	slots []uint32
	// live holds the open orders — the only ones that are Go objects —
	// and is O(open orders): a terminal transition nils the entry and
	// puts its index on free for the next booking.
	live []*Order
	free []uint32
	// The archive (archive.go): terminal orders as pointer-free records,
	// each one's rows a run of bytes in one chunked slab (run.go), team
	// and bid user interned. enc is the scratch a run is encoded in, and
	// width the registry's pool count, which runs are written against.
	recs       slab.Slab[orderRec]
	rows       slab.Slab[byte]
	enc        []byte
	width      int32
	labels     []orderLabel
	labelIndex map[orderLabel]uint32
	// open is the stripe's claim list: a lazily compacted superset of the
	// stripe's Status==Open orders, in ID order. Submit appends; cancels
	// and settlements leave their terminal — by then archived — orders in
	// place to be dropped by the next claimBatch compaction, so neither
	// path pays a scan. An order object is never reused, so a stale entry
	// can only ever read as terminal.
	open []*Order
	// openCount is the exact number of Status==Open orders in the stripe,
	// maintained on every status transition so OpenOrderCount is O(shards)
	// instead of a book scan.
	openCount int
}

// lookupLocked resolves slot j: the live order, or the archived record,
// or neither when the stripe has no such slot.
//
//marketlint:allocfree
func (os *orderShard) lookupLocked(j int) (*Order, *orderRec) {
	if j >= len(os.slots) {
		return nil, nil
	}
	if w := os.slots[j]; w&archivedBit != 0 {
		return nil, os.recs.At(int(w&^archivedBit), recChunk)
	} else {
		return os.live[w], nil
	}
}

// bookLocked enters an open order's object into the next slot.
//
//marketlint:allocfree
func (os *orderShard) bookLocked(o *Order) {
	var li uint32
	if n := len(os.free); n > 0 {
		li, os.free = os.free[n-1], os.free[:n-1]
		os.live[li] = o
	} else {
		li = uint32(len(os.live))
		//marketlint:allow allocfree amortized growth of the live table, bounded by the open orders
		os.live = append(os.live, o)
	}
	//marketlint:allow allocfree amortized growth of the slot table, four bytes an order
	os.slots = append(os.slots, li)
}

// viewLocked returns a snapshot of the order in slot j — a copy of the
// live object, or a view materialised from the archive whose rows d
// decodes — or nil without such a slot.
func (os *orderShard) viewLocked(id, j int, d *rowDecode) *Order {
	o, r := os.lookupLocked(j)
	if o != nil {
		return o.snapshot()
	}
	if r == nil {
		return nil
	}
	bo := new(bookedOrder)
	os.fillLocked(id, r, &bo.Order, &bo.bid, d)
	return &bo.Order
}

// rowLocked reads the display row of the order in slot j, which the
// stripe holds, in place: from the live object or the archived record.
func (os *orderShard) rowLocked(id, j int) OrderRow {
	o, r := os.lookupLocked(j)
	if o != nil {
		return OrderRow{ID: o.ID, Team: o.Team, User: o.Bid.User, Status: o.Status, Auction: o.Auction,
			Payment: o.Payment, MaxLimit: o.Bid.MaxLimit()}
	}
	l := os.labels[r.label]
	return OrderRow{ID: id, Team: l.team, User: l.user, Status: OrderStatus(r.status), Auction: int(r.auction),
		Payment: r.payment, MaxLimit: runMaxLimit(os.rows.From(r.run), os.width, r.limit)}
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

// mergeByID appends to dst the orders of src in global ID order — for
// serial traffic, exactly the submission order the unsharded book used,
// which keeps batch assembly and display paths deterministic. src is one
// run a stripe, run s ending at ends[s], each ascending by ID as every
// claim list is: a stripe books IDs in append order and compaction keeps
// that order. Each order's ID is read once, when it heads its run.
func mergeByID(dst, src []*Order, ends []int) []*Order {
	n := len(ends)
	at := make([]int, 2*n)
	pos, head := at[:n], at[n:]
	lo := 0
	for s, hi := range ends {
		pos[s], head[s] = lo, math.MaxInt
		if lo < hi {
			head[s] = src[lo].ID
		}
		lo = hi
	}
	for range src {
		s := 0
		for k := 1; k < n; k++ {
			if head[k] < head[s] {
				s = k
			}
		}
		dst = append(dst, src[pos[s]])
		if pos[s]++; pos[s] < ends[s] {
			head[s] = src[pos[s]].ID
		} else {
			head[s] = math.MaxInt
		}
	}
	return dst
}

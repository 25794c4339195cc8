package market

import (
	"fmt"
	"math"
	"sync"

	"clustermarket/internal/slab"
)

// shardCount is the number of stripes the order and account books are
// split into. Eight stripes keep lock contention negligible up to the
// mid-size multicore boxes the web tier runs on while costing nothing on
// small machines. It is fixed, not a setting: replay books order k at
// stripe k mod shardCount, so the count is part of the WAL's contract.
const shardCount = 8

// orderShard is one stripe of the order book: the order with ID k lives
// in stripe k % shardCount at slot k / shardCount, so lookups are O(1)
// and submits in different stripes never contend.
type orderShard struct {
	mu sync.RWMutex
	// slots[j] names the order with ID j*shardCount + shardIndex: an index
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
// Its lock is a plain mutex: every hot path — a submit's pre-check and
// its nested re-check, a settlement's debit — writes, and the few reads
// (Balance, Teams, the commitment scans) gain nothing from sharing.
type accountShard struct {
	mu sync.Mutex
	// accounts holds one record a team. A record is never deleted or
	// replaced once the exchange is shared, so a submit resolves it once
	// and re-reads the same pointer under the nested re-check.
	accounts map[string]*account
}

// account is one team's record: everything a submit reads or writes of
// the team, behind one map read. The fields are guarded by the stripe's
// mu.
type account struct {
	// team is the one copy of the name every order of the team shares.
	team    string
	balance float64
	// openBuy is the team's summed positive limits over open orders —
	// maintained incrementally so Submit's budget check is O(1).
	openBuy float64
	// users holds, per product, the one copy of the bid user team/product
	// every order of that pair shares — an order would otherwise carry a
	// string of its own. Products come from the catalog, so it stays
	// short.
	users []productUser
}

type productUser struct{ product, user string }

type orderLabel struct{ team, user string }

// userLocked returns the one copy of bidUser(a.team, product) the
// account's orders share. The caller holds the stripe's mu.
func (a *account) userLocked(product string) string {
	if product == "" {
		return a.team
	}
	for i := range a.users {
		if a.users[i].product == product {
			return a.users[i].user
		}
	}
	user := bidUser(a.team, product)
	a.users = append(a.users, productUser{product, user})
	return user
}

// bidUser names the bid of a team's order: team/product, or the team
// itself without a product.
func bidUser(team, product string) string {
	if product == "" {
		return team
	}
	return team + "/" + product
}

// fundsLocked refuses a bid of exposure exp when the team has no
// account, or when the account cannot commit exp more to open buy
// orders. The caller holds the stripe's mu.
func fundsLocked(a *account, team string, exp float64) error {
	if a == nil {
		return fmt.Errorf("market: no account %q", team)
	}
	// Negated so that a NaN balance refuses every bid.
	if exp > 0 && !(exp+a.openBuy <= a.balance) {
		return fmt.Errorf("market: %q limit %.2f exceeds available budget %.2f",
			team, exp, a.balance-a.openBuy)
	}
	return nil
}

// accountLocked returns the team's record, creating an empty one for a
// team that has none. The caller holds the stripe's mu.
func (as *accountShard) accountLocked(team string) *account {
	a := as.accounts[team]
	if a == nil {
		a = &account{team: team}
		as.accounts[team] = a
	}
	return a
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

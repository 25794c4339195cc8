package market

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"clustermarket/internal/core"
	"clustermarket/internal/slab"
)

// Terminal state leaves the pointer graph. An order is a Go object only
// while it is open; the transition that makes it terminal copies it into
// a pointer-free orderRec plus one compact run of bytes holding its rows
// in the stripe's chunked row slab, and a billing entry is a ledgerRec
// from the start. Order and LedgerEntry are views built from the records
// on demand. What a market daemon accumulates is therefore chunks of
// plain bytes the collector never scans, and retiring it below a
// watermark is dropping chunks.

// Chunk sizes of the archive's slabs (internal/slab: order and ledger
// records pushed one at a time, row runs allocated whole). A chunk is
// allocated under the stripe lock in the middle of a settlement wave, so
// it is a few KB — 3 KB of order records, 4 KB of runs, 1.5 KB of ledger
// records — which the allocator serves from its per-P cache: 16–64 KB
// chunks were zeroed, swept for and assisted for under that lock, and a
// 3 500-order wave on a busy machine ran ≈0.8 ms longer for it. The
// half-empty tail, the archive's only slack, is small for the same
// reason.
const (
	recChunk = 64   // order or ledger records a chunk
	runChunk = 4096 // bytes of runs a chunk
)

// maxStripeOrders bounds a stripe's slot table: a slot is 31 bits of
// live-table or archive index and one bit saying which.
const maxStripeOrders = 1 << 31

// archivedBit marks a slot whose order lives in the archive.
const archivedBit = 1 << 31

// ErrRecordOverflow marks an auction number, attempt count or row count
// too large for the fixed-width record a terminal order or a ledger entry
// is kept in. Such a value is refused before anything is mutated; it is
// never wrapped.
var ErrRecordOverflow = errors.New("market: value does not fit the book's record")

// ErrCorruptSnapshot marks a snapshot image that does not load — one no
// exchange could have written: undecodable, an order with an unknown
// status or fields its record cannot hold, a ledger entry whose sequence
// number is not its position. Recover wraps every restore failure in it.
var ErrCorruptSnapshot = errors.New("market: corrupt snapshot")

// orderRec is a terminal order: 48 bytes, no pointers. Its id is the slot
// that names it; team and bid user are one interned label; its rows — and
// a vector-π bid's bundle limits — are one run in the stripe's row slab,
// at address run (run.go has the layout).
type orderRec struct {
	payment, limit float64
	run            uint64
	label          uint32
	auction        int32
	attempts       int32
	bundle         int32
	status         uint8
}

// fitsRecord refuses what orderRec's narrowed fields cannot hold. Every
// seam where such a value enters the book — a settlement or attempt event,
// a replayed submit, a snapshot's order — calls it before mutating, so
// archiving itself cannot fail.
func fitsRecord(id, auction, attempts int, bid *core.Bid) error {
	_, val, n, _ := bid.PackedRows()
	switch {
	case auction > math.MaxInt32 || auction < -1:
		return fmt.Errorf("%w: order %d auction %d", ErrRecordOverflow, id, auction)
	case attempts > math.MaxInt32 || attempts < 0:
		return fmt.Errorf("%w: order %d attempts %d", ErrRecordOverflow, id, attempts)
	case len(val) > math.MaxUint32:
		return fmt.Errorf("%w: order %d has %d row entries", ErrRecordOverflow, id, len(val))
	case len(bid.BundleLimits) != 0 && len(bid.BundleLimits) != int(n):
		return fmt.Errorf("%w: order %d has %d bundle limits for %d bundles", ErrRecordOverflow, id, len(bid.BundleLimits), n)
	}
	return nil
}

// labelLocked interns a team and bid user; the strings themselves stay
// the account stripe's one copy.
//
//marketlint:allocfree
func (os *orderShard) labelLocked(team, user string) uint32 {
	l := orderLabel{team, user}
	if i, ok := os.labelIndex[l]; ok {
		return i
	}
	if os.labelIndex == nil {
		//marketlint:allow allocfree first label of the stripe
		os.labelIndex = make(map[orderLabel]uint32)
	}
	i := uint32(len(os.labels))
	//marketlint:allow allocfree one entry per distinct team and product, not per order
	os.labels = append(os.labels, l)
	//marketlint:allow allocfree one entry per distinct team and product, not per order
	os.labelIndex[l] = i
	return i
}

// recordLocked copies a terminal order into the archive and returns the
// slot word that names the record. The caller holds the stripe lock and
// has passed the order through fitsRecord.
//
//marketlint:allocfree
func (os *orderShard) recordLocked(o *Order) uint32 {
	os.enc = appendRun(os.enc[:0], o.Bid, os.width)
	at, run := os.rows.Alloc(len(os.enc), runChunk)
	copy(run, os.enc)
	label := os.labelLocked(o.Team, o.Bid.User)
	pos, r := os.recs.Push(recChunk)
	*r = orderRec{
		payment: o.Payment, limit: o.Bid.Limit, run: at, label: label,
		auction: int32(o.Auction), attempts: int32(o.Attempts), bundle: int32(o.Bundle),
		status: uint8(o.Status),
	}
	return archivedBit | uint32(pos)
}

// archiveLocked moves the now-terminal live order in slot j to the
// archive: the slot names the record, the live-table entry is recycled,
// and the order object is garbage once the settlement wave and the
// lazily compacted claim list let go of it.
//
//marketlint:allocfree
func (os *orderShard) archiveLocked(j int, o *Order) {
	li := os.slots[j]
	os.slots[j] = os.recordLocked(o)
	os.live[li] = nil
	//marketlint:allow allocfree amortized growth of the free list, bounded by the open orders
	os.free = append(os.free, li)
}

// fillLocked materialises the record's order into o and its bid into b,
// and hands b's rows to d to decode from the record's run.
func (os *orderShard) fillLocked(id int, r *orderRec, o *Order, b *core.Bid, d *rowDecode) {
	l := os.labels[r.label]
	*b = core.Bid{User: l.user, Limit: r.limit}
	d.add(b, os.rows.From(r.run), os.width)
	*o = Order{ID: id, Team: l.team, Bid: b, Status: OrderStatus(r.status), Auction: int(r.auction),
		Attempts: int(r.attempts), Bundle: int(r.bundle), Payment: r.payment}
}

// ledgerRec is one billing entry: 24 bytes, no pointers. Its Seq is its
// position. The two memos settlement writes are a kind and the order id,
// rendered on read; any other memo is interned text.
type ledgerRec struct {
	amount  float64
	auction int32
	team    uint32
	arg     uint32
	kind    uint8
}

const (
	memoText         uint8 = iota // arg indexes ledgerBook.text
	memoSettlement                // "order <arg> settlement"
	memoCounterparty              // "counterparty for order <arg>"
)

const (
	settlementPrefix, settlementSuffix = "order ", " settlement"
	counterpartyPrefix                 = "counterparty for order "
)

// ledgerBook is the billing ledger: records in chunks, team names and
// free-text memos interned.
type ledgerBook struct {
	mu    sync.RWMutex
	recs  slab.Slab[ledgerRec]
	text  []string
	index map[string]uint32
}

//marketlint:allocfree
func (l *ledgerBook) internLocked(s string) uint32 {
	if i, ok := l.index[s]; ok {
		return i
	}
	if l.index == nil {
		//marketlint:allow allocfree first entry of the ledger
		l.index = make(map[string]uint32)
	}
	i := uint32(len(l.text))
	//marketlint:allow allocfree one entry per distinct team or memo text, not per ledger entry
	l.text = append(l.text, s)
	//marketlint:allow allocfree one entry per distinct team or memo text, not per ledger entry
	l.index[s] = i
	return i
}

// orderMemoLocked is the compact form of a settlement memo; an order id
// too large for the argument falls back to the rendered text.
//
//marketlint:allocfree
func (l *ledgerBook) orderMemoLocked(kind uint8, id int) (uint8, uint32) {
	if id >= 0 && id <= math.MaxUint32 {
		return kind, uint32(id)
	}
	//marketlint:allow allocfree an order id past 2^32 keeps its memo as text
	return memoText, l.internLocked(renderOrderMemo(kind, uint64(id)))
}

// memoLocked is the compact form of any memo: the canonical settlement
// forms are parsed back to kind and id — a credit memo that happens to
// read "order 7 settlement" renders to the same bytes — and everything
// else is kept verbatim.
func (l *ledgerBook) memoLocked(memo string) (uint8, uint32) {
	kind, digits := memoText, ""
	if rest, ok := strings.CutPrefix(memo, counterpartyPrefix); ok {
		kind, digits = memoCounterparty, rest
	} else if rest, ok := strings.CutPrefix(memo, settlementPrefix); ok {
		if rest, ok = strings.CutSuffix(rest, settlementSuffix); ok {
			kind, digits = memoSettlement, rest
		}
	}
	if kind != memoText {
		if id, err := strconv.ParseUint(digits, 10, 32); err == nil && strconv.FormatUint(id, 10) == digits {
			return kind, uint32(id)
		}
	}
	return memoText, l.internLocked(memo)
}

func renderOrderMemo(kind uint8, id uint64) string {
	if kind == memoSettlement {
		return settlementPrefix + strconv.FormatUint(id, 10) + settlementSuffix
	}
	return counterpartyPrefix + strconv.FormatUint(id, 10)
}

//marketlint:allocfree
func (l *ledgerBook) postLocked(auction int, team string, amount float64, kind uint8, arg uint32) {
	id := l.internLocked(team)
	_, r := l.recs.Push(recChunk)
	*r = ledgerRec{amount: amount, auction: int32(auction), team: id, arg: arg, kind: kind}
}

// entriesLocked materialises every entry, nil when there are none.
func (l *ledgerBook) entriesLocked() []LedgerEntry {
	n := l.recs.Len(recChunk)
	if n == 0 {
		return nil
	}
	out := make([]LedgerEntry, n)
	for i := range out {
		r := l.recs.At(i, recChunk)
		out[i] = LedgerEntry{Seq: i, Auction: int(r.auction), Team: l.text[r.team], Amount: r.amount}
		if r.kind == memoText {
			out[i].Memo = l.text[r.arg]
		} else {
			out[i].Memo = renderOrderMemo(r.kind, uint64(r.arg))
		}
	}
	return out
}

// fitsLedger refuses an auction number a ledgerRec cannot hold.
func fitsLedger(auction int) error {
	if auction > math.MaxInt32 || auction < math.MinInt32 {
		return fmt.Errorf("%w: ledger entry for auction %d", ErrRecordOverflow, auction)
	}
	return nil
}

// postSettlement posts a winner's ledger pair — its debit and the
// operator's credit — in one critical section, so the ledger never
// exposes a half-posted trade.
//
//marketlint:allocfree
func (e *Exchange) postSettlement(auction int, team string, id int, payment float64) {
	l := &e.ledger
	l.mu.Lock()
	kind, arg := l.orderMemoLocked(memoSettlement, id)
	l.postLocked(auction, team, -payment, kind, arg)
	kind, arg = l.orderMemoLocked(memoCounterparty, id)
	l.postLocked(auction, OperatorAccount, payment, kind, arg)
	l.mu.Unlock()
}

// postCredit posts an off-auction credit to team and its counterparty
// entry against the operator in one critical section.
func (e *Exchange) postCredit(auction int, team string, amount float64, memo, counterMemo string) {
	l := &e.ledger
	l.mu.Lock()
	kind, arg := l.memoLocked(memo)
	l.postLocked(auction, team, amount, kind, arg)
	kind, arg = l.memoLocked(counterMemo)
	l.postLocked(auction, OperatorAccount, -amount, kind, arg)
	l.mu.Unlock()
}

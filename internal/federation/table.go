package federation

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/slab"
)

// The router's table. A federated order is kept as pointer-free records
// in three chunked slabs (internal/slab, the market archive's) — one route,
// one routeLeg per leg, and the legs' cluster indices — so what the router
// retains for every order ever routed is memory the collector never scans,
// growth copies nothing, and an order's id is its index: no lookup map.
// FedOrder and Leg are the view of a record, built for callers, events and
// snapshots (view) and read back at replay (store); store(view(id)) is the
// identity.

// ErrCorruptRoute marks a replayed routing record (a WAL event's order or
// a snapshot's) that does not describe a route this federation could have
// written; Restore's error carries the record's sequence number.
var ErrCorruptRoute = errors.New("federation: corrupt routing record")

// ErrTableFull is returned, rather than wrapping an index, when a slab
// has outgrown the integer that indexes it.
var ErrTableFull = errors.New("federation: router table full")

const (
	// maxRegions is what routeLeg.region holds, less noRegion.
	maxRegions = math.MaxUint8
	noRegion   = math.MaxUint8
	// maxLegClusters is what routeLeg.clN holds.
	maxLegClusters = math.MaxUint16
	maxStatus      = market.Unsettled
	// suspectBit is the bit of routeLeg.status above every status.
	suspectBit = 0x80
)

// Chunk sizes: a few KB each, as in the market archive, so a chunk comes
// from the allocator's per-P cache and the last chunk's empty tail, the
// table's only slack, stays small.
const (
	routeChunk   = 64   // 3 KB of routes
	legChunk     = 256  // 4 KB of legs
	clusterChunk = 1024 // 4 KB of cluster indices
)

// route is one federated order. team and product index table.names; its
// legs are the legN from position legOff of table.legs, cheapest first,
// and their clusters follow one another, in leg order, from position
// clOff of table.clusters.
type route struct {
	qty, limit, payment float64
	team, product       uint32
	legOff, clOff       uint32
	// active is the leg in a regional book, −1 once the order is terminal.
	active int16
	legN   uint8
	status uint8
	// won is the winning leg's region, noRegion unless the order is Won.
	won uint8
}

// routeLeg is one leg, holding clN of its route's clusters.
type routeLeg struct {
	est float64
	// order is the regional order id, −1 while the leg is unsubmitted.
	order  int32
	clN    uint16
	region uint8
	// status is the leg's market.OrderStatus; suspectBit marks a leg priced
	// from a quote past the staleness bound.
	status uint8
}

func (l *routeLeg) state() market.OrderStatus { return market.OrderStatus(l.status &^ suspectBit) }
func (l *routeLeg) suspect() bool             { return l.status&suspectBit != 0 }

// setState sets the leg's status and keeps its suspect mark.
func (l *routeLeg) setState(s market.OrderStatus) { l.status = l.status&suspectBit | uint8(s) }

// legDraft is a leg before the table holds it: its record, and where its
// clusters start in the draft's own cluster list.
type legDraft struct {
	routeLeg
	clOff uint32
}

// of returns the draft's clusters out of the cluster list it was built in.
func (d *legDraft) of(cls []uint32) []uint32 { return cls[d.clOff : d.clOff+uint32(d.clN)] }

// clusterRef places a cluster: its owning region and its index in
// table.clusterNames and table.clusterRows.
type clusterRef struct {
	id     uint32
	region uint8
}

type table struct {
	// The topology, fixed by NewFederation. clusterRows holds, beside each
	// cluster's name, its pools in its region's registry, so that the
	// router prices and books a leg without hashing a cluster name.
	regions      []*Region
	regionIdx    map[string]int
	cluster      map[string]clusterRef
	clusterNames []string
	clusterRows  []resource.PoolRow

	routes   slab.Slab[route]
	legs     slab.Slab[routeLeg]
	clusters slab.Slab[uint32]
	// errs holds the rare Leg.Err texts by leg index; names interns team
	// and product names.
	errs    map[uint32]string
	names   []string
	nameIdx map[string]uint32

	// open lists, per region, the ids of orders whose active leg was booked
	// there, in booking order. It may hold stale ids (a cancelled order, an
	// order that moved on) and, after replay, duplicates: an advance sorts
	// it, visits each id once and keeps only those still waiting there.
	open [][]uint32

	// maxIndex is the last index a slab may reach: math.MaxUint32, what the
	// records' offsets hold (a field so that a test can reach the guard).
	maxIndex uint64
}

// routed returns the number of orders routed: the next order's id.
func (t *table) routed() int { return t.routes.Len(routeChunk) }

// routeAt returns order id's record. Chunks never move, so the pointer
// stays good while the table grows.
func (t *table) routeAt(id int) *route { return t.routes.At(id, routeChunk) }

// legAt returns the leg record at position k.
func (t *table) legAt(k uint32) *routeLeg { return t.legs.At(int(k), legChunk) }

// clusterAt returns the cluster index at position k of table.clusters.
func (t *table) clusterAt(k uint32) uint32 { return *t.clusters.At(int(k), clusterChunk) }

// bytes returns the bytes of chunks the three slabs hold, tails included.
func (t *table) bytes() int {
	return t.routes.Held()*int(unsafe.Sizeof(route{})) + t.legs.Held()*int(unsafe.Sizeof(routeLeg{})) +
		t.clusters.Held()*int(unsafe.Sizeof(uint32(0)))
}

// fits reports whether a slab of have entries can take add more and still
// be indexed by the records' uint32 offsets.
func (t *table) fits(have, add int) bool { return uint64(have)+uint64(add) <= t.maxIndex }

func (t *table) intern(s string) uint32 {
	if i, ok := t.nameIdx[s]; ok {
		return i
	}
	i := uint32(len(t.names))
	t.names = append(t.names, s)
	t.nameIdx[s] = i
	return i
}

// add appends a route with its legs, whose clusters cls holds. It returns
// the new order's id, or ErrTableFull with nothing written.
func (t *table) add(rt route, team, product string, legs []legDraft, cls []uint32) (int, error) {
	id, nLegs, nCls := t.routed(), t.legs.Len(legChunk), t.clusters.Len(clusterChunk)
	if !t.fits(id, 1) || !t.fits(nLegs, len(legs)) || !t.fits(nCls, len(cls)) || !t.fits(len(t.names), 2) {
		return 0, ErrTableFull
	}
	rt.team, rt.product = t.intern(team), t.intern(product)
	rt.legOff, rt.clOff, rt.legN = uint32(nLegs), uint32(nCls), uint8(len(legs))
	for i := range legs {
		_, l := t.legs.Push(legChunk)
		*l = legs[i].routeLeg
		for _, c := range legs[i].of(cls) {
			_, p := t.clusters.Push(clusterChunk)
			*p = c
		}
	}
	_, r := t.routes.Push(routeChunk)
	*r = rt
	t.track(id)
	return id, nil
}

// setErr records (or, for "", clears) a leg's Err text.
func (t *table) setErr(leg uint32, text string) {
	if text == "" {
		delete(t.errs, leg)
		return
	}
	if t.errs == nil {
		t.errs = make(map[uint32]string)
	}
	t.errs[leg] = text
}

// waitingIn returns the region holding order id's active leg, −1 when the
// order is not open.
func (t *table) waitingIn(id uint32) int {
	rt := t.routeAt(int(id))
	if rt.status != uint8(market.Open) || rt.active < 0 {
		return -1
	}
	return int(t.legAt(rt.legOff + uint32(rt.active)).region)
}

// track lists an open order under its active leg's region.
func (t *table) track(id int) {
	if r := t.waitingIn(uint32(id)); r >= 0 {
		t.open[r] = append(t.open[r], uint32(id))
	}
}

// clOff returns where leg k of rt has its clusters in table.clusters.
func (t *table) clOff(rt *route, k int) uint32 {
	off := rt.clOff
	for i := 0; i < k; i++ {
		off += uint32(t.legAt(rt.legOff + uint32(i)).clN)
	}
	return off
}

// appendRows appends the pool rows of the n clusters from position off of
// table.clusters.
func (t *table) appendRows(dst []resource.PoolRow, off uint32, n uint16) []resource.PoolRow {
	for k := off; k < off+uint32(n); k++ {
		dst = append(dst, t.clusterRows[t.clusterAt(k)])
	}
	return dst
}

// appendNames appends the names of the n clusters from position off of
// table.clusters.
func (t *table) appendNames(dst []string, off uint32, n uint16) []string {
	for k := off; k < off+uint32(n); k++ {
		dst = append(dst, t.clusterNames[t.clusterAt(k)])
	}
	return dst
}

// view materialises order id. The result shares nothing with the table.
func (t *table) view(id int) *FedOrder {
	rt := t.routeAt(id)
	fo := &FedOrder{
		ID: id, Team: t.names[rt.team], Product: t.names[rt.product],
		Qty: rt.qty, Limit: rt.limit, Status: market.OrderStatus(rt.status),
		Legs: make([]*Leg, rt.legN), Active: int(rt.active), Payment: rt.payment,
	}
	if rt.won != noRegion {
		fo.Region = t.regions[rt.won].name
	}
	n := 0
	for i := range fo.Legs {
		n += int(t.legAt(rt.legOff + uint32(i)).clN)
	}
	legs, names := make([]Leg, len(fo.Legs)), make([]string, 0, n)
	off := rt.clOff
	for i := range legs {
		k := rt.legOff + uint32(i)
		l := t.legAt(k)
		start := len(names)
		names = t.appendNames(names, off, l.clN)
		off += uint32(l.clN)
		legs[i] = Leg{
			Region: t.regions[l.region].name, Clusters: names[start:len(names):len(names)],
			Est: l.est, Suspect: l.suspect(), OrderID: int(l.order), Status: l.state(),
			Err: t.errs[k],
		}
		fo.Legs[i] = &legs[i]
	}
	return fo
}

// views materialises the orders from id start on, in routing order.
func (t *table) views(start int) []*FedOrder {
	n := t.routed()
	out := make([]*FedOrder, 0, n-start)
	for id := start; id < n; id++ {
		out = append(out, t.view(id))
	}
	return out
}

// store is view's inverse, the one way a decoded record enters the table:
// a submitted record appends order routed(), an updated one overwrites
// the routing state of an order it must otherwise agree with (same legs,
// same clusters). The record is validated whole before anything is
// written; one that no router could have written is an ErrCorruptRoute.
func (t *table) store(fo *FedOrder, submitted bool) error {
	if fo == nil {
		return fmt.Errorf("%w: no order", ErrCorruptRoute)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: order %d: %s", ErrCorruptRoute, fo.ID, fmt.Sprintf(format, args...))
	}
	open, n := fo.Status == market.Open, t.routed()
	switch {
	case submitted && fo.ID != n, !submitted && (fo.ID < 0 || fo.ID >= n):
		return bad("out of sequence (%d orders routed)", n)
	case fo.Status < 0 || fo.Status > maxStatus:
		return bad("unknown status %d", int(fo.Status))
	case len(fo.Legs) == 0 || len(fo.Legs) > len(t.regions):
		return bad("%d legs over %d regions", len(fo.Legs), len(t.regions))
	case open && (fo.Active < 0 || fo.Active >= len(fo.Legs)), !open && fo.Active != -1:
		// An open order waits on one of its legs; a terminal one on none.
		return bad("%s with active leg %d of %d", fo.Status, fo.Active, len(fo.Legs))
	}
	rt := route{qty: fo.Qty, limit: fo.Limit, payment: fo.Payment,
		status: uint8(fo.Status), active: int16(fo.Active), won: noRegion}
	if w, ok := t.regionIdx[fo.Region]; ok {
		rt.won = uint8(w)
	} else if fo.Region != "" {
		return bad("unknown winning region %q", fo.Region)
	}
	legs, cls, won := make([]legDraft, 0, len(fo.Legs)), []uint32(nil), -1
	for i, l := range fo.Legs {
		if l == nil {
			return bad("leg %d is null", i)
		}
		ri, ok := t.regionIdx[l.Region]
		if !ok || slices.ContainsFunc(legs, func(p legDraft) bool { return int(p.region) == ri }) {
			return bad("leg %d names region %q (unknown, or twice)", i, l.Region)
		}
		if len(l.Clusters) == 0 || len(l.Clusters) > maxLegClusters {
			return bad("leg %d names %d clusters", i, len(l.Clusters))
		}
		// Only a booked leg has an outcome, and the active leg has none yet.
		booked, settled := l.OrderID >= 0, l.Status != market.Open
		if l.Status < 0 || l.Status > maxStatus || l.OrderID < -1 || l.OrderID > math.MaxInt32 ||
			settled && (!booked || i == fo.Active) || !booked && i == fo.Active || settled && l.Status == market.Won && won >= 0 {
			return bad("leg %d is %s with regional order %d (active leg %d, winning leg %d)", i, l.Status, l.OrderID, fo.Active, won)
		}
		if l.Status == market.Won {
			won = i
		}
		d := legDraft{routeLeg{est: l.Est, order: int32(l.OrderID), clN: uint16(len(l.Clusters)),
			region: uint8(ri), status: uint8(l.Status)}, uint32(len(cls))}
		if l.Suspect {
			d.status |= suspectBit
		}
		legs = append(legs, d)
		for _, name := range l.Clusters {
			ref, ok := t.cluster[name]
			if !ok || int(ref.region) != ri {
				return bad("leg %d: cluster %q is not in region %q", i, name, l.Region)
			}
			cls = append(cls, ref.id)
		}
	}
	// A won order is its one winning leg: in that leg's region, for what
	// that region's book (recovered before the router, to the same cut)
	// says the regional order paid.
	if (fo.Status == market.Won) != (won >= 0) || won < 0 && rt.won != noRegion || won >= 0 && rt.won != legs[won].region {
		return bad("%s in region %q with winning leg %d", fo.Status, fo.Region, won)
	}
	if won >= 0 {
		st, paid, ok := t.regions[rt.won].ex.Outcome(int(legs[won].order))
		if !ok || st != market.Won || paid != fo.Payment {
			return bad("won regional order %d for %g; region %q has it (%t) %s for %g", legs[won].order, fo.Payment, fo.Region, ok, st, paid)
		}
	}

	if submitted {
		if _, err := t.add(rt, fo.Team, fo.Product, legs, cls); err != nil {
			return err
		}
	} else {
		cur := t.routeAt(fo.ID)
		if int(cur.legN) != len(legs) {
			return bad("update changes %d legs to %d", cur.legN, len(legs))
		}
		off := cur.clOff
		for i := range legs {
			old, want := t.legAt(cur.legOff+uint32(i)), legs[i].of(cls)
			same := old.region == legs[i].region && int(old.clN) == len(want)
			for j := 0; same && j < len(want); j++ {
				same = t.clusterAt(off+uint32(j)) == want[j]
			}
			if !same {
				return bad("update changes leg %d's region or clusters", i)
			}
			off += uint32(old.clN)
		}
		if !t.fits(len(t.names), 2) {
			return ErrTableFull
		}
		rt.team, rt.product = t.intern(fo.Team), t.intern(fo.Product)
		rt.legOff, rt.clOff, rt.legN = cur.legOff, cur.clOff, cur.legN
		*cur = rt
		for i := range legs {
			*t.legAt(cur.legOff + uint32(i)) = legs[i].routeLeg
		}
		t.track(fo.ID)
	}
	off := t.routeAt(fo.ID).legOff
	for i, l := range fo.Legs {
		t.setErr(off+uint32(i), l.Err)
	}
	return nil
}

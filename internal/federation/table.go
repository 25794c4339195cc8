package federation

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"clustermarket/internal/market"
)

// The router's table. A federated order is kept as pointer-free records
// in three slabs — one route, one routeLeg per leg, and the legs' cluster
// indices — so what the router retains for every order ever routed is
// memory the collector never scans, and an order's id is its index: no
// lookup map. FedOrder and Leg are the view of a record, built for
// callers, events and snapshots (view) and read back at replay (store);
// store(view(id)) is the identity.

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
)

// route is one federated order. team and product index table.names; the
// legs are table.legs[legOff : legOff+legN], cheapest first.
type route struct {
	qty, limit, payment float64
	team, product       uint32
	legOff              uint32
	// active is the leg in a regional book, −1 once the order is terminal.
	active int16
	legN   uint8
	status uint8
	// won is the winning leg's region, noRegion unless the order is Won.
	won uint8
}

// routeLeg is one leg; its clusters are table.clusters[clOff : clOff+clN].
type routeLeg struct {
	est float64
	// order is the regional order id, −1 while the leg is unsubmitted.
	order   int32
	clOff   uint32
	clN     uint16
	region  uint8
	status  uint8
	suspect bool
}

// clusterRef places a cluster: its owning region and its index in
// table.clusterNames.
type clusterRef struct {
	id     uint32
	region uint8
}

type table struct {
	// The topology, fixed by NewFederation.
	regions      []*Region
	regionIdx    map[string]int
	cluster      map[string]clusterRef
	clusterNames []string

	routes   []route
	legs     []routeLeg
	clusters []uint32
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

// add appends a route with its legs; legs' clOff index cls. It returns
// the new order's id, or ErrTableFull with nothing written.
func (t *table) add(rt route, team, product string, legs []routeLeg, cls []uint32) (int, error) {
	if !t.fits(len(t.routes), 1) || !t.fits(len(t.legs), len(legs)) ||
		!t.fits(len(t.clusters), len(cls)) || !t.fits(len(t.names), 2) {
		return 0, ErrTableFull
	}
	id := len(t.routes)
	rt.team, rt.product = t.intern(team), t.intern(product)
	rt.legOff, rt.legN = uint32(len(t.legs)), uint8(len(legs))
	for _, l := range legs {
		off := uint32(len(t.clusters))
		t.clusters = append(t.clusters, l.of(cls)...)
		l.clOff = off
		t.legs = append(t.legs, l)
	}
	t.routes = append(t.routes, rt)
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

// legsOf returns the order's leg records.
func (t *table) legsOf(rt *route) []routeLeg {
	return t.legs[rt.legOff : rt.legOff+uint32(rt.legN)]
}

// waitingIn returns the region holding order id's active leg, −1 when the
// order is not open.
func (t *table) waitingIn(id uint32) int {
	rt := &t.routes[id]
	if rt.status != uint8(market.Open) || rt.active < 0 {
		return -1
	}
	return int(t.legs[rt.legOff+uint32(rt.active)].region)
}

// track lists an open order under its active leg's region.
func (t *table) track(id int) {
	if r := t.waitingIn(uint32(id)); r >= 0 {
		t.open[r] = append(t.open[r], uint32(id))
	}
}

// of returns the leg's clusters (indices into clusterNames) out of the
// slab its clOff points into: table.clusters, or a draft's own.
func (l *routeLeg) of(cls []uint32) []uint32 { return cls[l.clOff : l.clOff+uint32(l.clN)] }

// view materialises order id. The result shares nothing with the table.
func (t *table) view(id int) *FedOrder {
	rt := &t.routes[id]
	legs := t.legsOf(rt)
	fo := &FedOrder{
		ID: id, Team: t.names[rt.team], Product: t.names[rt.product],
		Qty: rt.qty, Limit: rt.limit, Status: market.OrderStatus(rt.status),
		Legs: make([]*Leg, len(legs)), Active: int(rt.active), Payment: rt.payment,
	}
	if rt.won != noRegion {
		fo.Region = t.regions[rt.won].name
	}
	n := 0
	for i := range legs {
		n += int(legs[i].clN)
	}
	slab, names := make([]Leg, len(legs)), make([]string, 0, n)
	for i := range legs {
		l := &legs[i]
		start := len(names)
		for _, c := range l.of(t.clusters) {
			names = append(names, t.clusterNames[c])
		}
		slab[i] = Leg{
			Region: t.regions[l.region].name, Clusters: names[start:len(names):len(names)],
			Est: l.est, Suspect: l.suspect, OrderID: int(l.order), Status: market.OrderStatus(l.status),
			Err: t.errs[rt.legOff+uint32(i)],
		}
		fo.Legs[i] = &slab[i]
	}
	return fo
}

// views materialises the orders from id start on, in routing order.
func (t *table) views(start int) []*FedOrder {
	out := make([]*FedOrder, 0, len(t.routes)-start)
	for id := start; id < len(t.routes); id++ {
		out = append(out, t.view(id))
	}
	return out
}

// store is view's inverse, the one way a decoded record enters the table:
// a submitted record appends order len(routes), an updated one overwrites
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
	open := fo.Status == market.Open
	switch {
	case submitted && fo.ID != len(t.routes), !submitted && (fo.ID < 0 || fo.ID >= len(t.routes)):
		return bad("out of sequence (%d orders routed)", len(t.routes))
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
	legs, cls, won := make([]routeLeg, 0, len(fo.Legs)), []uint32(nil), -1
	for i, l := range fo.Legs {
		if l == nil {
			return bad("leg %d is null", i)
		}
		ri, ok := t.regionIdx[l.Region]
		if !ok || slices.ContainsFunc(legs, func(p routeLeg) bool { return int(p.region) == ri }) {
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
		legs = append(legs, routeLeg{est: l.Est, order: int32(l.OrderID), clOff: uint32(len(cls)), clN: uint16(len(l.Clusters)),
			region: uint8(ri), status: uint8(l.Status), suspect: l.Suspect})
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
		cur := &t.routes[fo.ID]
		old := t.legsOf(cur)
		if len(old) != len(legs) {
			return bad("update changes %d legs to %d", len(old), len(legs))
		}
		for i := range legs {
			l := &legs[i]
			if old[i].region != l.region || !slices.Equal(old[i].of(t.clusters), l.of(cls)) {
				return bad("update changes leg %d's region or clusters", i)
			}
			l.clOff = old[i].clOff
		}
		if !t.fits(len(t.names), 2) {
			return ErrTableFull
		}
		rt.team, rt.product, rt.legOff, rt.legN = t.intern(fo.Team), t.intern(fo.Product), cur.legOff, cur.legN
		*cur = rt
		copy(old, legs)
		t.track(fo.ID)
	}
	off := t.routes[fo.ID].legOff
	for i, l := range fo.Legs {
		t.setErr(off+uint32(i), l.Err)
	}
	return nil
}

package federation

import (
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// TestingRegion exposes the in-package testRegion helper to the external
// federation_test package (the conservation tests, which live outside
// the package to consume the invariant kernel without an import cycle).
// Region test topology lives in exactly one place.
func TestingRegion(t testing.TB, name string, clusters int, util float64) *Region {
	return testRegion(t, name, clusters, util)
}

// TestingRecoverRegion exposes recoverRegion to the external test
// package, for a world whose regions do not share the one config Open
// gives them all.
var TestingRecoverRegion = recoverRegion

// TestingApplyEvent decodes one journal record and replays it, as Restore
// does for each record of the WAL tail.
func TestingApplyEvent(f *Federation, raw []byte) error {
	var ev FedEvent
	if err := json.Unmarshal(raw, &ev); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applyEvent(&ev)
}

// TableImage is a copy of the router's table — every order's records, the
// Err side table and the interned names; the open lists are left out,
// since they may hold stale ids — for comparing a live federation with a
// recovered one record for record, whatever chunks the slabs are in.
type TableImage struct {
	Orders []OrderImage
	Errs   map[uint32]string
	Names  []string
}

// OrderImage is one order's records: its route, its legs and their
// clusters.
type OrderImage struct {
	Route    route
	Legs     []routeLeg
	Clusters []uint32
}

// TestingTableImage copies the table.
func TestingTableImage(f *Federation) TableImage {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &f.table
	img := TableImage{Names: slices.Clone(t.names)}
	for id := range t.routed() {
		o := OrderImage{Route: *t.routeAt(id)}
		off := o.Route.clOff
		for k := range uint32(o.Route.legN) {
			l := *t.legAt(o.Route.legOff + k)
			o.Legs = append(o.Legs, l)
			for range l.clN {
				o.Clusters = append(o.Clusters, t.clusterAt(off))
				off++
			}
		}
		img.Orders = append(img.Orders, o)
	}
	if len(t.errs) > 0 {
		img.Errs = maps.Clone(t.errs)
	}
	return img
}

// TestingRestoreViews re-stores every order's own view over its record
// (store ∘ view, which must change nothing) and reports the first record
// it changed. Each store lists the order again on its region's open list,
// so afterwards the lists hold duplicates.
func TestingRestoreViews(f *Federation) error {
	before := TestingTableImage(f)
	f.mu.Lock()
	for id := range f.table.routed() {
		if err := f.table.store(f.table.view(id), false); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	f.mu.Unlock()
	if after := TestingTableImage(f); !reflect.DeepEqual(before, after) {
		return fmt.Errorf("store(view(id)) changed the table:\nbefore %+v\nafter  %+v", before, after)
	}
	return nil
}

// The three methods below are test support: no program cancels a
// federated order, gossips outside a settlement or forces a routing
// snapshot. They drive withdrawLocked (a submit whose record failed
// runs it), the quote pass and the snapshot writer, which programs do
// run.

// Cancel withdraws a federated order by cancelling its active leg. Like
// Exchange.Cancel, an order whose leg is in a settling auction cannot be
// withdrawn. A journal error is this cancellation's own record's.
func (f *Federation) Cancel(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.withdrawLocked(id)
}

// Gossip refreshes the price board from every region — the periodic
// exchange of "last clearing / preliminary prices" that lets the router
// order cross-region legs cheapest-first without a global price oracle.
// It is the quote pass every settlement runs, over every region. Regions
// whose quote cannot be computed keep their previous entry.
// It returns the new gossip tick.
func (f *Federation) Gossip() int {
	tick := f.gossip(f.every())
	f.mu.Lock()
	_ = f.catchUpLocked()
	f.mu.Unlock()
	return tick
}

// Snapshot writes a consistent snapshot of the routing state to the
// attached journal and rotates its WAL, bounding recovery replay. It is
// a no-op without a journal.
func (f *Federation) Snapshot() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.journal == nil {
		return nil
	}
	return f.snapshotLocked()
}

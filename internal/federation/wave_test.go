package federation

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/telemetry"
)

// The serial advance, kept as the settlement wave's oracle: region ri's
// waiting orders in ascending id, each failover booked as its outcome is
// read, a refused leg falling through to the next within the same call.
func (f *Federation) serialAdvance(ri int) {
	r := f.regions[ri]
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &f.table
	ids := t.open[ri]
	t.open[ri] = nil
	slices.Sort(ids)
	var kept []uint32
	for i, id32 := range ids {
		if i > 0 && id32 == ids[i-1] || t.waitingIn(id32) != ri {
			continue
		}
		id := int(id32)
		rt := t.routeAt(id)
		leg := t.legAt(rt.legOff + uint32(rt.active))
		status, payment, ok := r.ex.Outcome(int(leg.order))
		if !ok || status == market.Open {
			kept = append(kept, id32)
			continue
		}
		leg.setState(status)
		switch status {
		case market.Won:
			rt.status, rt.active = uint8(market.Won), -1
			rt.won, rt.payment = uint8(ri), payment
			f.stats.Won++
		case market.Lost, market.Unsettled:
			if f.serialBookNextLocked(id) {
				f.stats.Failovers++
				break
			}
			rt.status, rt.active = uint8(status), -1
			if status == market.Lost {
				f.stats.Lost++
			} else {
				f.stats.Unsettled++
			}
		case market.Cancelled:
			rt.status, rt.active = uint8(market.Cancelled), -1
		}
		if f.materializingLocked() {
			stats := f.stats
			f.emitLocked(&FedEvent{Kind: EvFedOrderUpdated, Order: t.view(id), Stats: &stats})
		}
	}
	t.open[ri] = append(kept, t.open[ri]...)
}

// serialBookNextLocked books the first leg after order id's active one
// that its region accepts, and reports whether there was one.
func (f *Federation) serialBookNextLocked(id int) bool {
	t := &f.table
	rt := t.routeAt(id)
	var rowBuf [8]resource.PoolRow
	off := t.clOff(rt, int(rt.active)+1)
	for next := int(rt.active) + 1; next < int(rt.legN); next++ {
		k := rt.legOff + uint32(next)
		leg := t.legAt(k)
		rows := t.appendRows(rowBuf[:0], off, leg.clN)
		off += uint32(leg.clN)
		if err := f.bookLeg(leg, rows, t.names[rt.team], t.names[rt.product], rt.qty, rt.limit); err != nil {
			t.setErr(k, err.Error())
			continue
		}
		rt.active = int16(next)
		t.track(id)
		return true
	}
	return false
}

// serialTick is Tick over the serial advance: every clock, then gossip,
// then each region's advance in registration order.
func serialTick(f *Federation) {
	for _, r := range f.regions {
		_, _, _ = r.ex.RunAuction()
	}
	f.Gossip()
	for ri := range f.regions {
		f.serialAdvance(ri)
	}
}

// serialSettleRegion is SettleRegion over the serial advance.
func serialSettleRegion(f *Federation, ri int) {
	_, _, _ = f.regions[ri].ex.RunAuction()
	f.gossip([]int{ri})
	f.serialAdvance(ri)
}

// diffFederation is the differential planet: four regions at different
// heats, so that the board orders an order's legs differently from region
// to region, the last cut off after one clock round, so that its legs stay
// Open for epochs and then go Unsettled. Budgets cover every leg.
func diffFederation(t testing.TB) *Federation {
	t.Helper()
	f, err := NewFederation(
		testRegion(t, "a", 2, 0.85), testRegion(t, "b", 2, 0.5), testRegion(t, "c", 2, 0.1),
		configuredRegion(t, "d", 1, 0.1, market.Config{InitialBudget: 1e6, MaxRounds: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, team := range []string{"t0", "t1"} {
		if err := f.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// diffOrder is one cross-region order: one to four regions, one or two
// clusters in each, a limit straddling the clearing prices.
type diffOrder struct {
	team     string
	qty      float64
	clusters []string
	limit    float64
}

func diffOrders(rng *rand.Rand, f *Federation, n int) []diffOrder {
	out := make([]diffOrder, n)
	for i := range out {
		o := diffOrder{team: "t" + fmt.Sprint(rng.Intn(2)), qty: float64(1 + rng.Intn(2)), limit: 1 + 29*rng.Float64()}
		for _, ri := range rng.Perm(len(f.regions))[:1+rng.Intn(len(f.regions))] {
			cls := f.regions[ri].Clusters()
			for _, c := range rng.Perm(len(cls))[:1+rng.Intn(len(cls))] {
				o.clusters = append(o.clusters, cls[c])
			}
		}
		out[i] = o
	}
	return out
}

// routerEvents drains what the subscription holds, one line an event.
func routerEvents(t *testing.T, sub *telemetry.Subscription) []string {
	t.Helper()
	var out []string
	for {
		select {
		case ev := <-sub.C:
			raw, err := json.Marshal(ev.Payload)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ev.Kind+" "+string(raw))
		default:
			if sub.Dropped() > 0 {
				t.Fatal("the subscription dropped events")
			}
			return out
		}
	}
}

// TestWaveMatchesSerialAdvance drives seeded four-region federations, by
// Tick and by SettleRegion, beside twins driven by the serial advance, and
// requires after every epoch the same regional books, routes, Stats and
// router events. Budgets refuse no leg, the case in which the two agree
// exactly. The concurrent row runs SubmitProduct and Cancel against Tick
// (under -race in CI) and holds the router to its own invariants.
func TestWaveMatchesSerialAdvance(t *testing.T) {
	const seeds, epochs, drain, perEpoch = 64, 4, 4, 24
	drives := []struct {
		name         string
		wave, oracle func(*Federation)
	}{
		{"tick", func(f *Federation) { f.Tick() }, serialTick},
		{"settle-region", func(f *Federation) {
			for _, r := range f.regions {
				_, _ = f.SettleRegion(r.name)
			}
		}, func(f *Federation) {
			for ri := range f.regions {
				serialSettleRegion(f, ri)
			}
		}},
	}
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			failovers := 0
			for seed := int64(1); seed <= seeds; seed++ {
				wave, oracle := diffFederation(t), diffFederation(t)
				fires := [2]*telemetry.Firehose{telemetry.NewFirehose(), telemetry.NewFirehose()}
				wave.AttachTelemetry(fires[0])
				oracle.AttachTelemetry(fires[1])
				// Room for a whole run's events: routerEvents fails on a drop.
				subs := [2]*telemetry.Subscription{fires[0].Subscribe(1 << 14), fires[1].Subscribe(1 << 14)}
				rng := rand.New(rand.NewSource(seed))
				for e := 0; e < epochs+drain; e++ {
					if e < epochs {
						for _, o := range diffOrders(rng, wave, perEpoch) {
							idW, errW := wave.SubmitProduct(o.team, "batch-compute", o.qty, o.clusters, o.limit)
							idO, errO := oracle.SubmitProduct(o.team, "batch-compute", o.qty, o.clusters, o.limit)
							if idW != idO || (errW == nil) != (errO == nil) {
								t.Fatalf("seed %d: submit %d/%v vs %d/%v", seed, idW, errW, idO, errO)
							}
						}
					}
					d.wave(wave)
					d.oracle(oracle)
					label := fmt.Sprintf("seed %d epoch %d", seed, e)
					for ri := range wave.regions {
						if got, want := wave.regions[ri].ex.Orders(), oracle.regions[ri].ex.Orders(); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: region %s's book differs from the oracle's", label, wave.regions[ri].name)
						}
					}
					got, want := wave.Orders(), oracle.Orders()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: routes differ:\nwave   %s\noracle %s", label, dump(got), dump(want))
					}
					for _, fo := range got {
						for _, l := range fo.Legs {
							if l.Err != "" {
								t.Fatalf("%s: order %d's %s leg refused (%s): budgets must cover every leg", label, fo.ID, l.Region, l.Err)
							}
						}
					}
					if gs, ws := wave.Stats(), oracle.Stats(); gs != ws {
						t.Fatalf("%s: stats %+v, oracle %+v", label, gs, ws)
					}
					if ge, we := routerEvents(t, subs[0]), routerEvents(t, subs[1]); !reflect.DeepEqual(ge, we) {
						t.Fatalf("%s: router events differ:\nwave   %s\noracle %s", label, strings.Join(ge, "\n       "), strings.Join(we, "\n       "))
					}
				}
				failovers += wave.Stats().Failovers
			}
			if failovers == 0 {
				t.Fatal("no seed failed over: the comparison never ran a booking pass")
			}
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		f := diffFederation(t)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; !stop.Load(); i++ {
					o := diffOrders(rng, f, 1)[0]
					id, err := f.SubmitProduct(o.team, "batch-compute", o.qty, o.clusters, o.limit)
					if err != nil {
						t.Error(err)
						return
					}
					if i%3 == 0 {
						_ = f.Cancel(id) // a leg in a settling auction cannot be withdrawn
					}
				}
			}(g)
		}
		for i := 0; i < 20; i++ {
			f.Tick()
		}
		stop.Store(true)
		wg.Wait()
		for i := 0; i < 40 && len(openOrders(t, f)) > 0; i++ {
			f.Tick()
		}
		if open := openOrders(t, f); len(open) > 0 {
			t.Fatalf("%d orders still open after draining", len(open))
		}
		st, count := f.Stats(), map[market.OrderStatus]int{}
		orders := f.Orders()
		for _, fo := range orders {
			count[fo.Status]++
			won := 0
			for _, l := range fo.Legs {
				if l.Status == market.Won {
					won++
				}
			}
			if won > 1 || (won == 1) != (fo.Status == market.Won) {
				t.Fatalf("order %d is %s with %d won legs", fo.ID, fo.Status, won)
			}
		}
		if st.Submitted != len(orders) || st.Won != count[market.Won] || st.Lost != count[market.Lost] || st.Unsettled != count[market.Unsettled] {
			t.Fatalf("stats %+v over orders by status %v", st, count)
		}
		if st.Failovers == 0 || count[market.Cancelled] == 0 {
			t.Fatalf("stats %+v, %d cancelled: the row must fail over and cancel", st, count[market.Cancelled])
		}
		if !ledgerBalanced(f, 1e-6) {
			t.Error("federated ledger unbalanced")
		}
	})
}

// openOrders returns the open orders, checking that each is listed under
// its active leg's region.
func openOrders(t *testing.T, f *Federation) []*FedOrder {
	t.Helper()
	var open []*FedOrder
	for _, fo := range f.Orders() {
		if fo.Status != market.Open {
			continue
		}
		f.mu.Lock()
		listed := slices.Contains(f.table.open[f.table.regionIdx[fo.Legs[fo.Active].Region]], uint32(fo.ID))
		f.mu.Unlock()
		if !listed {
			t.Fatalf("open order %d is not listed under its active leg's region", fo.ID)
		}
		open = append(open, fo)
	}
	return open
}

// TestWaveRefusedLegBooksNextPass pins the refusal rule: an order whose
// next leg its region refuses books its following leg in the wave's next
// pass, or retires with its lost leg's outcome when no leg is left, and
// the refused leg keeps the refusal's text. Legs are tried in the
// caller's order (the three regions quote alike); every leg a loses and
// region b refuses. Order 0 (a, b, c) books c in the second pass, after
// order 2 (a, c) booked c in the first, so c's regional ids run against
// the federated ones; order 1 (a, b) retires Lost. Two runs of a row agree
// bit for bit.
func TestWaveRefusedLegBooksNextPass(t *testing.T) {
	rows := []struct {
		name string
		// b builds region b, journaling to dir if at all, and a func that
		// readies it to refuse legs.
		b       func(t *testing.T, dir string) (*Region, func())
		errText string
	}{
		{"budget", func(t *testing.T, dir string) (*Region, func()) {
			return configuredRegion(t, "b", 1, 0.1, market.Config{InitialBudget: 1e-9}), func() {}
		}, "exceeds available budget"},
		{"degraded", func(t *testing.T, dir string) (*Region, func()) {
			// b journals on a disk that stops persisting: every leg's
			// journal write fails, so b refuses it. b's own clock (under
			// Tick) has an empty book and writes nothing. Each run
			// journals to its own directory: the refusal's text must not
			// name it.
			inj := fault.New()
			j, _, err := journal.Open(dir, journal.Options{FS: fault.NewFS(inj, nil), FsyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			b := configuredRegion(t, "b", 1, 0.1, market.Config{InitialBudget: 1e6, Journal: j})
			return b, func() {
				inj.Arm([]fault.Window{
					{Op: fault.OpDiskWrite, Kind: fault.EIO, Count: 100000},
					{Op: fault.OpDiskFsync, Kind: fault.EIO, Count: 100000},
				})
				if _, err := b.ex.SubmitProduct("team", "batch-compute", 1, []string{"b-r1"}, 1); err == nil || !j.Failing() {
					t.Fatalf("submit on a sick disk = %v, want b's journal failing", err)
				}
			}
		}, "journal order-submitted event"},
	}
	for _, row := range rows {
		for _, drive := range []string{"tick", "settle-region"} {
			t.Run(row.name+"/"+drive, func(t *testing.T) {
				run := func() (*Federation, []string) {
					b, refuse := row.b(t, t.TempDir())
					f, err := NewFederation(testRegion(t, "a", 1, 0.1), b, testRegion(t, "c", 1, 0.1))
					if err != nil {
						t.Fatal(err)
					}
					if err := f.OpenAccount("team"); err != nil {
						t.Fatal(err)
					}
					fire := telemetry.NewFirehose()
					f.AttachTelemetry(fire)
					sub := fire.Subscribe(64) // a handful of events; routerEvents fails on a drop
					// A limit no region's price covers: leg a loses.
					for _, cls := range [][]string{{"a-r1", "b-r1", "c-r1"}, {"a-r1", "b-r1"}, {"a-r1", "c-r1"}} {
						if _, err := f.SubmitProduct("team", "batch-compute", 1, cls, 0.00001); err != nil {
							t.Fatal(err)
						}
					}
					refuse()
					if drive == "tick" {
						f.Tick()
					} else if _, err := f.SettleRegion("a"); err != nil {
						t.Fatal(err)
					}
					var events []string
					for _, ev := range routerEvents(t, sub) {
						if strings.HasPrefix(ev, EvFedOrderUpdated) {
							events = append(events, ev)
						}
					}
					return f, events
				}
				f, events := run()
				orders := f.Orders()
				three, two, direct := orders[0], orders[1], orders[2]
				if three.Status != market.Open || three.Active != 2 || three.Legs[2].OrderID != 1 || three.Legs[2].Status != market.Open {
					t.Fatalf("order 0 = %s, active %d, legs %s: want leg c booked second in c", three.Status, three.Active, dump(three.Legs))
				}
				if direct.Active != 1 || direct.Legs[1].OrderID != 0 {
					t.Fatalf("order 2 = %s, active %d, legs %s: want leg c booked first in c", direct.Status, direct.Active, dump(direct.Legs))
				}
				if two.Status != market.Lost || two.Active != -1 || two.Legs[0].Status != market.Lost {
					t.Fatalf("two-leg order = %s, active %d, legs %s: want it retired Lost", two.Status, two.Active, dump(two.Legs))
				}
				for _, fo := range []*FedOrder{three, two} {
					if b := fo.Legs[1]; b.OrderID != -1 || !strings.Contains(b.Err, row.errText) {
						t.Fatalf("order %d's refused leg b = %+v, want unbooked with %q", fo.ID, b, row.errText)
					}
				}
				if st := f.Stats(); st.Failovers != 2 || st.Lost != 1 {
					t.Fatalf("stats = %+v, want 2 failovers and 1 lost", st)
				}
				rs := f.RouterStats().Regions
				if rs[0].Visited != 3 || rs[0].Failovers != 2 || rs[1].Refused != 2 || rs[2].Refused != 0 {
					t.Fatalf("router regions = %+v, want a 3 visited and 2 failovers, b 2 refused, c none", rs)
				}
				if len(events) != 3 {
					t.Fatalf("router events = %v, want one update an order", events)
				}
				for id, ev := range events {
					if !strings.Contains(ev, fmt.Sprintf(`"order":{"ID":%d,`, id)) {
						t.Fatalf("router event %d = %s, want order %d's update", id, ev, id)
					}
				}
				again, againEvents := run()
				if !reflect.DeepEqual(f.Orders(), again.Orders()) || f.Stats() != again.Stats() || !reflect.DeepEqual(events, againEvents) {
					t.Fatal("two runs of the row disagree")
				}
				for ri := range f.regions {
					if !reflect.DeepEqual(f.regions[ri].ex.Orders(), again.regions[ri].ex.Orders()) {
						t.Fatalf("two runs leave region %s's book different", f.regions[ri].name)
					}
				}
			})
		}
	}
}

func dump(v any) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

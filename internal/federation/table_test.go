package federation

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// TestRouterTableIsPointerFree walks the record types: the collector
// skips a chunk only while its element holds nothing it must follow, so a
// later field may not quietly bring scanning back.
func TestRouterTableIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s is a %s: the collector would scan every record", path, ty.Kind())
		}
	}
	walk("route", reflect.TypeOf(route{}))
	walk("routeLeg", reflect.TypeOf(routeLeg{}))
	walk("clusterIndex", slabElem(reflect.TypeOf(table{}), "clusters"))
	walk("openID", reflect.TypeOf(table{}.open).Elem().Elem())
	if got := reflect.TypeOf(route{}).Size(); got > 48 {
		t.Errorf("route is %d bytes, was 48", got)
	}
	if got := reflect.TypeOf(routeLeg{}).Size(); got > 16 {
		t.Errorf("routeLeg is %d bytes, was 16", got)
	}
}

// TestRouterBytesPerOrder is the router's retention budget: what its
// slabs hold per routed order, chunk tails included, read from the gauge
// an operator sees. A route is 48 bytes, a leg 16 and a cluster index 4,
// so a four-region XOR of one cluster a leg keeps 128 and a one-cluster
// regional order 68.
func TestRouterBytesPerOrder(t *testing.T) {
	const orders = 2048
	for _, tc := range []struct {
		name     string
		clusters []string
		budget   int
	}{
		{"four-region XOR", []string{"a-r1", "b-r2", "c-r1", "d-r2"}, 132},
		{"one region, one cluster", []string{"a-r1"}, 72},
	} {
		f := fourRegions(t)
		for i := 0; i < orders; i++ {
			if _, err := f.SubmitProduct("team", "batch-compute", 1, tc.clusters, 40); err != nil {
				t.Fatal(err)
			}
		}
		rs := f.RouterStats()
		if rs.Routes != orders || rs.Legs != orders*len(tc.clusters) {
			t.Fatalf("%s: the table holds %d routes and %d legs after %d orders", tc.name, rs.Routes, rs.Legs, orders)
		}
		if per := rs.Bytes / rs.Routes; per > tc.budget {
			t.Errorf("%s: the router keeps %d B an order (%d B over %d routes), budget %d", tc.name, per, rs.Bytes, rs.Routes, tc.budget)
		}
	}
}

// fourRegions is a federation of regions a..d, two idle clusters each,
// with one funded team.
func fourRegions(t testing.TB) *Federation {
	t.Helper()
	var rs []*Region
	for _, name := range []string{"a", "b", "c", "d"} {
		rs = append(rs, testRegion(t, name, 2, 0.1))
	}
	f, err := NewFederation(rs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	return f
}

// fedSubmitAllocBudget is what routing one four-region XOR may allocate
// with nobody watching: the regional order with its two row slabs, the
// regional booking's own. The router's table grows a chunk at a time.
const fedSubmitAllocBudget = 3

// TestFedSubmitAllocBudget bounds a routed submit's allocations and
// requires that the router itself allocate nothing per order: a rate-1
// memory profile finds, under SubmitProduct and outside the regional
// booking, only the table's chunks and the amortized growth of the chunk
// lists and the open lists. The regional booking is the region's,
// budgeted by market's TestSubmitAllocBudget.
func TestFedSubmitAllocBudget(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	f := fourRegions(t)
	xor := []string{"a-r1", "b-r2", "c-r1", "d-r2"}
	const runs = 500
	// The first order gossips the board on demand; the profile starts after.
	if _, err := f.SubmitProduct("team", "batch-compute", 1, xor, 40); err != nil {
		t.Fatal(err)
	}
	router0, booking0 := submitProfile(t)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := f.SubmitProduct("team", "batch-compute", 1, xor, 40); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > fedSubmitAllocBudget {
		t.Errorf("a routed submit allocates %.0f times, budget %d", allocs, fedSubmitAllocBudget)
	}

	router, booking := submitProfile(t)
	router, booking = router-router0, booking-booking0
	f.mu.Lock()
	tb := &f.table
	chunks := tb.routes.Held()/routeChunk + tb.legs.Held()/legChunk + tb.clusters.Held()/clusterChunk
	f.mu.Unlock()
	if booking < runs {
		t.Errorf("the profile saw %d regional booking allocations for %d orders: the check is vacuous", booking, runs)
	}
	// One allocation a chunk, and the log₂ growths of four doubling lists
	// (three chunk lists, an open list): nothing that scales with the
	// orders routed but the chunks.
	if router > int64(chunks+4*bits.Len(runs)) {
		t.Errorf("the router allocated %d times over %d routed orders in %d chunks: want none an order", router, runs, chunks)
	}
}

// submitProfile collects the memory profile and sums, over allocation
// sites under Federation.SubmitProduct, the objects the router allocated
// and those the regional booking (Exchange.SubmitProductRows) did.
func submitProfile(t *testing.T) (router, booking int64) {
	t.Helper()
	// The profile is as of the last completed cycle.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("memory profile grew while it was read")
	}
	for _, rec := range recs[:n] {
		switch {
		case !under(rec.Stack(), "federation.(*Federation).SubmitProduct"):
		case under(rec.Stack(), "market.(*Exchange).SubmitProductRows"):
			booking += rec.AllocObjects
		default:
			router += rec.AllocObjects
		}
	}
	return router, booking
}

// under reports whether fn (a function-name suffix) is on the stack.
func under(stack []uintptr, fn string) bool {
	frames := runtime.CallersFrames(stack)
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestAdvanceAllocBudget settles N single-leg orders — winners and
// losers, all terminal after one leg — and requires the settlement wave
// over them to allocate the same handful whatever N is: no id list, no order
// copies, no error per retired order. Then it settles N two-leg orders
// whose losing first legs fail over, and requires each failover to cost
// the regional booking's own allocations and nothing of the router's: no
// name slice, no view.
func TestAdvanceAllocBudget(t *testing.T) {
	// advance books N orders over the clusters, settles region a and
	// returns the mallocs of its wave, the orders it retired lost
	// and the failovers it booked.
	advance := func(n int, clusters []string) (mallocs uint64, lost, failovers int) {
		f := fourRegions(t)
		for i := 0; i < n; i++ {
			// Limits straddle the clearing price, so the batch splits.
			if _, err := f.SubmitProduct("team", "batch-compute", 1, clusters, float64(1+i%40)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := f.regions[0].ex.RunAuction(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f.advance(0)
		runtime.ReadMemStats(&after)
		st, rs := f.Stats(), f.RouterStats()
		if st.Won == 0 || st.Won+st.Lost+st.Failovers != n || rs.Regions[0].Visited != n || rs.Regions[0].OpenIDs != 0 ||
			rs.Regions[0].Failovers != st.Failovers {
			t.Fatalf("N = %d over %v: advance left %+v %+v; want every order visited, some won", n, clusters, st, rs)
		}
		return after.Mallocs - before.Mallocs, st.Lost, st.Failovers
	}

	var got []uint64
	for _, n := range []int{100, 1600} {
		m, lost, failovers := advance(n, []string{"a-r1"})
		if lost == 0 || failovers != 0 {
			t.Fatalf("N = %d single-leg orders: %d lost, %d failed over; want some lost, none failed over", n, lost, failovers)
		}
		got = append(got, m)
	}
	// The count is the process's, so a background allocation or two may
	// land in the window; one per leg cannot hide.
	if got[0] > 16 || got[1] > 16 {
		t.Errorf("advance allocated %d times over 100 legs and %d over 1600; want O(1)", got[0], got[1])
	}

	// The regional booking's own count, measured on a region alone.
	r := testRegion(t, "solo", 2, 0.1)
	if err := r.ex.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	row, _ := r.ex.Registry().Row("solo-r1")
	rows := []resource.PoolRow{row}
	booking := testing.AllocsPerRun(500, func() {
		if _, err := r.ex.SubmitProductRows("team", "batch-compute", 1, rows, 40); err != nil {
			t.Fatal(err)
		}
	})
	// Each failover books into region b's book, which grows by doubling:
	// between two sizes that growth adds only its log₂ steps, so the
	// allocations a failover adds at the margin are the booking's own.
	m1, _, k1 := advance(400, []string{"a-r1", "b-r1"})
	m2, _, k2 := advance(1600, []string{"a-r1", "b-r1"})
	if k1 == 0 || k2-k1 < 500 {
		t.Fatalf("the larger batch failed over %d times to the smaller's %d: the margin is too thin to measure", k2, k1)
	}
	if per := float64(m2-m1) / float64(k2-k1); per > booking+0.25 {
		t.Errorf("a failover allocates %.2f times at the margin (%d over %d failovers, %d over %d), the regional booking %.0f: the router allocates per failover",
			per, m2, k2, m1, k1, booking)
	}
}

// TestNarrowedIndicesAreGuarded covers the guards on the table's narrowed
// integers: the region index, the slab offsets and the per-leg cluster
// count are refused with an error, never wrapped.
func TestNarrowedIndicesAreGuarded(t *testing.T) {
	regions := make([]*Region, maxRegions+1)
	for i := range regions {
		regions[i] = &Region{name: fmt.Sprintf("r%d", i)}
	}
	if _, err := NewFederation(regions...); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("NewFederation(%d regions) = %v, want a refusal", len(regions), err)
	}

	f := hotCold(t)
	if !f.table.fits(math.MaxUint32-4, 4) || f.table.fits(math.MaxUint32-4, 5) || f.table.fits(math.MaxUint32, 1) {
		t.Error("fits does not stop at the last uint32 index")
	}
	many := make([]string, maxLegClusters+1)
	for i := range many {
		many[i] = "cold-r1"
	}
	if _, err := f.SubmitProduct("team", "batch-compute", 1, many, 50); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("a leg of %d clusters: %v, want a refusal", len(many), err)
	}

	// A full slab refuses the route with the typed error and withdraws the
	// leg already booked; the table is as it was.
	xor := []string{"hot-r1", "cold-r1"}
	if _, err := f.SubmitProduct("team", "batch-compute", 1, xor, 50); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	f.table.maxIndex = 3 // two legs booked: room for one more, not two
	f.mu.Unlock()
	if _, err := f.SubmitProduct("team", "batch-compute", 1, xor, 50); !errors.Is(err, ErrTableFull) {
		t.Errorf("submit into a full leg slab = %v, want ErrTableFull", err)
	}
	if rs := f.RouterStats(); rs.Routes != 1 || rs.Legs != 2 {
		t.Errorf("the refused route left %+v", rs)
	}
	open := 0
	for _, r := range f.regions {
		open += r.ex.OpenOrderCount()
	}
	if open != 1 {
		t.Errorf("%d regional orders open, want only the first order's leg", open)
	}
}

// TestStoreRejectsWonLegTheRegionDenies pins the one check that reads a
// region: a record may only say Won what the regional book says it won.
func TestStoreRejectsWonLegTheRegionDenies(t *testing.T) {
	f := hotCold(t)
	id, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	f.Tick()
	won, _ := f.Order(id)
	if won.Status != market.Won {
		t.Fatalf("order is %s, want won", won.Status)
	}
	if err := f.table.store(won, false); err != nil {
		t.Fatalf("re-storing the order's own view: %v", err)
	}
	won.Payment++
	if err := f.table.store(won, false); !errors.Is(err, ErrCorruptRoute) {
		t.Errorf("a payment the region never took: %v, want ErrCorruptRoute", err)
	}
}

// slabElem is the entry type of the slab held in field name of struct
// type owner: the element of the slab's chunks.
func slabElem(owner reflect.Type, name string) reflect.Type {
	f, _ := owner.FieldByName(name)
	chunks, _ := f.Type.FieldByName("chunks")
	return chunks.Type.Elem().Elem()
}

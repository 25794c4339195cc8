package market_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/market"
)

// submitAllocBudget is what one SubmitProduct may allocate, whatever the
// planet's size: the order co-allocated with its bid, and the bid's index
// slab and value slab. The registry's cluster index, which resolves the
// names, is built once a registry, not once an order: the tests below
// build it before they profile.
const submitAllocBudget = 3

// TestSubmitAllocBudget gates the admission path's allocations exactly —
// they are deterministic — at R = 39 and R = 192: the same small count at
// both sizes, and no single allocation of 8·R bytes or more anywhere
// under SubmitProduct, which is what an R-length vector costs — aside
// from what is not per order: the stripe slices' amortized doubling in
// bookOrderLocked and the account's product users in userLocked. Sizes come
// from the runtime's memory profile with every allocation sampled, less
// what it held before the runs.
func TestSubmitAllocBudget(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	const runs = 200
	for _, clusters := range []int{13, 64} {
		f := cluster.NewFleet()
		for c := 0; c < clusters; c++ {
			cl := cluster.New(fmt.Sprintf("w%dc", c), nil)
			cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := f.AddCluster(cl); err != nil {
				t.Fatal(err)
			}
		}
		ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.OpenAccount("team"); err != nil {
			t.Fatal(err)
		}
		r := ex.Registry().Len()
		xor := []string{"w0c", "w5c", "w9c"} // nine non-zero components
		ex.Registry().Row(xor[0])            // builds the cluster index
		before := profileBySite(t)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := ex.SubmitProduct("team", "batch-compute", 2, xor, 40); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != submitAllocBudget {
			t.Errorf("R = %d: SubmitProduct allocates %.0f times an order, budget %d", r, allocs, submitAllocBudget)
		}

		var seen int64
		for _, rec := range memProfile(t) {
			// The profile is the process's: count these runs' share.
			was := before[siteOf(rec)]
			rec.AllocObjects -= was.AllocObjects
			rec.AllocBytes -= was.AllocBytes
			if rec.AllocObjects == 0 || !underSubmitProduct(rec.Stack()) {
				continue
			}
			seen += rec.AllocObjects
			if size := rec.AllocBytes / rec.AllocObjects; size >= int64(8*r) {
				t.Errorf("R = %d: a %d-byte allocation under SubmitProduct (an R-length vector is %d)", r, size, 8*r)
			}
		}
		if seen < runs*submitAllocBudget {
			t.Errorf("R = %d: the profile saw %d allocations under SubmitProduct, want at least %d: the size check is vacuous", r, seen, runs*submitAllocBudget)
		}
	}
}

// settleAllocBudget is what one winner may allocate under RunAuction,
// whatever the planet's size: its settlement event, with room for the
// losers' events the same sites are charged with (1.4 a winner here). The
// bundle index an event points at is one slice a wave; the ledger pair is
// two records in a chunk — its memos are
// a kind and the order id, rendered on read — and the archive copy lands
// in chunks too, so nothing a winner allocates outlives the wave.
const settleAllocBudget = 3

// TestSettleAllocBudget is TestSubmitAllocBudget for the other end of an
// order's life. The same demand — 600 one-to-three cluster XOR orders
// over the first 13 clusters, so the same winners — is settled on a
// planet of 13 clusters and one of 64 (R = 39 and R = 192). An allocation
// site under RunAuction is attributable to winners when it ran at least
// once a winner (per-auction work — the clock's scratch, the record's
// price vectors, a slice's amortized doubling — runs a handful of times);
// those sites must allocate the same small count a winner at both sizes,
// nothing of 8·R bytes or more, which is what an R-length allocation
// vector costs, and must leave nothing live: a settled order is a record
// in a chunk, and chunks are not allocated once a winner.
func TestSettleAllocBudget(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	type perWinner struct{ winners, allocs, retained int64 }
	var got []perWinner
	for _, clusters := range []int{13, 64} {
		f := cluster.NewFleet()
		for c := 0; c < clusters; c++ {
			cl := cluster.New(fmt.Sprintf("s%dc%d", clusters, c), nil)
			cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := f.AddCluster(cl); err != nil {
				t.Fatal(err)
			}
		}
		ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.OpenAccount("team"); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 600; k++ {
			var xor []string
			for j := 0; j <= k%3; j++ {
				xor = append(xor, fmt.Sprintf("s%dc%d", clusters, (k+5*j)%13))
			}
			if _, err := ex.SubmitProduct("team", "batch-compute", 1, xor, float64(5+k%60)); err != nil {
				t.Fatal(err)
			}
		}
		before := profileBySite(t)
		if _, _, err := ex.RunAuction(); err != nil {
			t.Fatal(err)
		}
		r := ex.Registry().Len()
		pw := perWinner{winners: int64(ex.Metrics().Won)}
		if pw.winners < 50 || pw.winners == 600 {
			t.Fatalf("R = %d: %d of 600 orders won; the demand should split", r, pw.winners)
		}
		for _, rec := range memProfile(t) {
			// The profile is the process's: count this auction's share.
			was := before[siteOf(rec)]
			rec.AllocObjects -= was.AllocObjects
			rec.AllocBytes -= was.AllocBytes
			rec.FreeObjects -= was.FreeObjects
			rec.FreeBytes -= was.FreeBytes
			if rec.AllocObjects < pw.winners || !under(rec.Stack(), "market.(*Exchange).RunAuction") {
				continue
			}
			pw.allocs += rec.AllocObjects
			pw.retained += rec.InUseBytes()
			if size := rec.AllocBytes / rec.AllocObjects; size >= int64(8*r) {
				t.Errorf("R = %d: a %d-byte allocation a winner under RunAuction (an R-length vector is %d)", r, size, 8*r)
			}
		}
		runtime.KeepAlive(ex) // the book is live while the profile is read
		if pw.allocs == 0 {
			t.Errorf("R = %d: the profile saw no per-winner allocation under RunAuction: the size check is vacuous", r)
		}
		if max := settleAllocBudget * pw.winners; pw.allocs > max {
			t.Errorf("R = %d: %d allocations for %d winners, budget %d a winner", r, pw.allocs, pw.winners, settleAllocBudget)
		}
		if pw.retained != 0 {
			t.Errorf("R = %d: %d bytes stay live at per-winner allocation sites under RunAuction, want none", r, pw.retained)
		}
		t.Logf("R = %d: %+v", r, pw)
		got = append(got, pw)
	}
	if got[0] != got[1] {
		t.Errorf("per-winner cost depends on the planet's size: R = 39 %+v, R = 192 %+v", got[0], got[1])
	}
}

// retainedPerOrderCeiling is what a terminal order may keep on the heap,
// chunk slack and slot included: a 48 B record, its run (one to three
// clusters of three pools, the quantities written once: 30 to 38 B), a
// 4 B slot, and a winner's 48 B ledger pair.
const retainedPerOrderCeiling = 130

// bookSites reports whether a profile record was allocated building the
// book: under an admission or under an order's terminal transition.
func bookSites(stack []uintptr) bool {
	return under(stack, "market.(*Exchange).submitOwned") || under(stack, "market.(*Exchange).SubmitProduct") ||
		under(stack, "market.(*Exchange).applyOrderSettled") || under(stack, "market.(*Exchange).Cancel")
}

// retained sums what the book-building sites hold live, over the profile
// taken before the book was built.
func retained(t *testing.T, before map[profileSite]runtime.MemProfileRecord) (bytes, objects int64) {
	t.Helper()
	for _, rec := range memProfile(t) {
		if !bookSites(rec.Stack()) {
			continue
		}
		was := before[siteOf(rec)]
		bytes += rec.InUseBytes() - was.InUseBytes()
		objects += rec.InUseObjects() - was.InUseObjects()
	}
	return bytes, objects
}

// TestSettledOrderRetainedCeiling measures what TestSettleAllocBudget
// cannot see — allocations that run once a chunk, not once a winner: the
// whole of what 4 800 settled orders (eight waves of the same 600) leave
// live at the sites that built the book, half-empty chunk tails of the
// eight stripes included. It must be under the ceiling, the same at
// R = 39 and R = 192, and chunks, not orders: the order objects, their row
// slabs and the ledger memos are gone.
func TestSettledOrderRetainedCeiling(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	const waves, perWave = 8, 600
	var got [][2]int64
	for _, clusters := range []int{13, 64} {
		f := cluster.NewFleet()
		for c := 0; c < clusters; c++ {
			cl := cluster.New(fmt.Sprintf("k%dc%d", clusters, c), nil)
			cl.AddMachines(3, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
			if err := f.AddCluster(cl); err != nil {
				t.Fatal(err)
			}
		}
		ex, err := market.NewExchange(f, market.Config{InitialBudget: 1e12})
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.OpenAccount("team"); err != nil {
			t.Fatal(err)
		}
		ex.Registry().Row("") // builds the cluster index
		before := profileBySite(t)
		for w := 0; w < waves; w++ {
			for k := 0; k < perWave; k++ {
				var xor []string
				for j := 0; j <= k%3; j++ {
					xor = append(xor, fmt.Sprintf("k%dc%d", clusters, (k+5*j)%13))
				}
				if _, err := ex.SubmitProduct("team", "batch-compute", 1, xor, float64(5+k%60)); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := ex.RunAuction(); err != nil {
				t.Fatal(err)
			}
		}
		// The next claim drops the last wave from the claim list.
		if _, _, err := ex.RunAuction(); !errors.Is(err, market.ErrNoOpenOrders) {
			t.Fatalf("the book should be empty: %v", err)
		}
		r := ex.Registry().Len()
		m := ex.Metrics()
		if m.Won < perWave/10 || m.LiveOrders != 0 || m.ArchivedOrders != waves*perWave {
			t.Fatalf("R = %d: %d won, %d live and %d archived orders: want every order settled and some winners",
				r, m.Won, m.LiveOrders, m.ArchivedOrders)
		}
		bytes, objects := retained(t, before)
		runtime.KeepAlive(ex)
		if per := bytes / (waves * perWave); per > retainedPerOrderCeiling {
			t.Errorf("R = %d: %d bytes retained a settled order, ceiling %d", r, per, retainedPerOrderCeiling)
		}
		if objects*8 > waves*perWave { // a few-KB chunk holds tens of orders
			t.Errorf("R = %d: %d objects retained for %d settled orders: orders are still objects", r, objects, waves*perWave)
		}
		t.Logf("R = %d: %d bytes and %d objects retained for %d settled orders (%d B an order)", r, bytes, objects, waves*perWave, bytes/(waves*perWave))
		got = append(got, [2]int64{bytes, objects})
	}
	// To the byte an order; a stray runtime object either way is not R.
	if db, do := got[0][0]-got[1][0], got[0][1]-got[1][1]; max(db, -db) >= waves*perWave || max(do, -do) > 2 {
		t.Errorf("a settled order's cost depends on the planet's size: R = 39 %v, R = 192 %v (bytes, objects)", got[0], got[1])
	}
}

// TestCancelAllocBudget is the budget for the third way out of the book.
// A cancel archives, as a settlement does: it may allocate a chunk now
// and then — nothing per order — and once the claim list is compacted
// the cancelled orders' objects and row slabs are gone. A book of one
// order a stripe pays every stripe's first chunks; what 600 more
// cancelled orders retain beyond that book is held to the ceiling.
func TestCancelAllocBudget(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	const orders = 600
	baseBytes, baseObjects := cancelledBook(t, 0)
	bytes, objects := cancelledBook(t, orders)
	bytes, objects = bytes-baseBytes, objects-baseObjects
	t.Logf("%d bytes and %d objects retained for %d cancelled orders beyond one a stripe", bytes, objects, orders)
	if per := bytes / orders; per > retainedPerOrderCeiling {
		t.Errorf("%d bytes retained a cancelled order, ceiling %d", per, retainedPerOrderCeiling)
	}
	if objects*8 > orders {
		t.Errorf("%d objects retained for %d cancelled orders: orders are still objects", objects, orders)
	}
}

// cancelledBook books one order a stripe and extra more on a fresh
// exchange, cancels them all, and returns what the sites that built the
// book retain once the claim list is compacted. Past each stripe's first
// cancel, which may open its archive chunks, Cancel allocates nothing an
// order.
func cancelledBook(t *testing.T, extra int) (bytes, objects int64) {
	t.Helper()
	ex, err := market.NewExchange(recoverFleet(t), market.Config{InitialBudget: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	stripes := len(ex.OpenOrdersPerStripe())
	before := profileBySite(t)
	for k := 0; k < stripes+extra; k++ {
		if _, err := ex.SubmitProduct("team", "batch-compute", 1, []string{"alpha", "beta"}[:1+k%2], float64(5+k%60)); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	cancel := func() {
		if err := ex.Cancel(next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < stripes { // IDs are dealt round-robin: one a stripe
		cancel()
	}
	if extra > 0 {
		if allocs := testing.AllocsPerRun(extra-1, cancel); allocs != 0 { // and one warm-up run
			t.Errorf("Cancel allocates %.0f times an order, want only the occasional chunk", allocs)
		}
	}
	if _, _, err := ex.RunAuction(); !errors.Is(err, market.ErrNoOpenOrders) {
		t.Fatalf("the book should be empty: %v", err)
	}
	bytes, objects = retained(t, before)
	runtime.KeepAlive(ex)
	return bytes, objects
}

// profileBySite is the memory profile as a baseline to subtract: the
// profile is the process's, a test counts its own share.
func profileBySite(t *testing.T) map[profileSite]runtime.MemProfileRecord {
	t.Helper()
	by := make(map[profileSite]runtime.MemProfileRecord)
	for _, rec := range memProfile(t) {
		by[siteOf(rec)] = rec
	}
	return by
}

// profileSite identifies a memory profile record: the runtime keeps one
// per call stack and allocation size.
type profileSite struct {
	stack [32]uintptr
	size  int64
}

func siteOf(rec runtime.MemProfileRecord) profileSite {
	if rec.AllocObjects == 0 {
		return profileSite{stack: rec.Stack0}
	}
	return profileSite{rec.Stack0, rec.AllocBytes / rec.AllocObjects}
}

// memProfile reads the runtime's memory profile, which completed GC
// cycles publish.
func memProfile(t *testing.T) []runtime.MemProfileRecord {
	t.Helper()
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("memory profile grew while it was read")
	}
	return recs[:n]
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

func underSubmitProduct(stack []uintptr) bool {
	return under(stack, "market.(*Exchange).SubmitProduct") &&
		!under(stack, "market.(*Exchange).bookOrderLocked") &&
		!under(stack, "market.(*account).userLocked")
}

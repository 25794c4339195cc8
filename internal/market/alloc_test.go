package market_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/market"
)

// submitAllocBudget is what one SubmitProduct may allocate, whatever the
// planet's size: the order co-allocated with its bid, the bid's index
// slab and value slab, and the snapshot handed back to the caller.
const submitAllocBudget = 4

// TestSubmitAllocBudget gates the admission path's allocations exactly —
// they are deterministic — at R = 39 and R = 192: the same small count at
// both sizes, and no single allocation of 8·R bytes or more anywhere
// under SubmitProduct, which is what an R-length vector costs — aside
// from what is not per order: the stripe slices' amortized doubling in
// bookOrderLocked and the account's label map in labelLocked. Sizes come
// from the runtime's memory profile with every allocation sampled.
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
// whatever the planet's size: its settlement event and the bundle index
// it points at, the two ledger memos and what formatting them boxes.
const settleAllocBudget = 8

// TestSettleAllocBudget is TestSubmitAllocBudget for the other end of an
// order's life. The same demand — 600 one-to-three cluster XOR orders
// over the first 13 clusters, so the same winners — is settled on a
// planet of 13 clusters and one of 64 (R = 39 and R = 192). An allocation
// site under RunAuction is attributable to winners when it ran at least
// once a winner (per-auction work — the clock's scratch, the record's
// price vectors, a slice's amortized doubling — runs a handful of times);
// those sites must allocate the same small count a winner at both sizes,
// nothing of 8·R bytes or more, which is what an R-length allocation
// vector costs, and must leave the same bytes live a winner at both.
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
		before := make(map[profileSite]runtime.MemProfileRecord)
		for _, rec := range memProfile(t) {
			before[siteOf(rec)] = rec
		}
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
		got = append(got, pw)
	}
	if got[0] != got[1] {
		t.Errorf("per-winner cost depends on the planet's size: R = 39 %+v, R = 192 %+v", got[0], got[1])
	}
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
		!under(stack, "market.(*accountShard).labelLocked")
}

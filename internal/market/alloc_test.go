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

		// The profile is published by completed GC cycles.
		runtime.GC()
		runtime.GC()
		n, _ := runtime.MemProfile(nil, true)
		recs := make([]runtime.MemProfileRecord, n+64)
		n, ok := runtime.MemProfile(recs, true)
		if !ok {
			t.Fatal("memory profile grew while it was read")
		}
		var seen int64
		for _, rec := range recs[:n] {
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

func underSubmitProduct(stack []uintptr) bool {
	frames := runtime.CallersFrames(stack)
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, "market.(*Exchange).bookOrderLocked") ||
			strings.HasSuffix(fr.Function, "market.(*accountShard).labelLocked") {
			return false
		}
		if strings.HasSuffix(fr.Function, "market.(*Exchange).SubmitProduct") {
			return true
		}
		if !more {
			return false
		}
	}
}

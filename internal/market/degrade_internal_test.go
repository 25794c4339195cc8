package market

import "testing"

// TestRejectIfDegradedZeroAlloc pins the per-submit price of the fault
// seam: rejectIfDegraded is one atomic load and a predictable branch on
// the epoch-loop hot path, and must stay at 0 allocs/op (marketlint's
// allocfree contract enforces the same bound statically).
func TestRejectIfDegradedZeroAlloc(t *testing.T) {
	var e Exchange
	if n := testing.AllocsPerRun(100, func() { _ = e.rejectIfDegraded() }); n != 0 {
		t.Errorf("rejectIfDegraded allocates %v per op, want 0", n)
	}
}

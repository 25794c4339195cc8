package market

import (
	"math"
	"testing"
)

// TestDisbursementPolicyString: the disbursed event still names its
// policy "equal-shares", so fingerprints and written journals replay
// unchanged; the ledger memo is built from it.
func TestDisbursementPolicyString(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Disburse(10); err != nil {
		t.Fatal(err)
	}
	if led := e.Ledger(); len(led) != 2 || led[0].Memo != "budget disbursement (equal-shares)" {
		t.Errorf("ledger = %+v, want a credit memo naming equal-shares", led)
	}
}

func TestDisburseEqual(t *testing.T) {
	e := newTestExchange(t)
	for _, team := range []string{"a", "b"} {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Disburse(1000); err != nil {
		t.Fatal(err)
	}
	for _, team := range []string{"a", "b"} {
		bal, _ := e.Balance(team)
		if bal != 1500 { // 1000 initial + 500 disbursed
			t.Errorf("%s balance = %v", team, bal)
		}
	}
	if !ledgerBalanced(e, 1e-9) {
		t.Error("ledger unbalanced after disbursement")
	}

	// Each credit is total / n bit for bit, and a share that rounds to
	// zero credits nothing.
	if err := e.OpenAccount("c"); err != nil {
		t.Fatal(err)
	}
	before := len(e.Ledger())
	if err := e.Disburse(1000); err != nil {
		t.Fatal(err)
	}
	for _, le := range e.Ledger()[before:] {
		if le.Team != OperatorAccount && le.Amount != 1000.0/3 {
			t.Errorf("%s credited %v, want exactly 1000/3", le.Team, le.Amount)
		}
	}
	before = len(e.Ledger())
	if err := e.Disburse(math.SmallestNonzeroFloat64); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Ledger()); got != before {
		t.Errorf("a zero share posted %d ledger entries", got-before)
	}
}

func TestDisburseErrors(t *testing.T) {
	e := newTestExchange(t)
	if err := e.Disburse(100); err == nil {
		t.Error("no accounts accepted")
	}
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Disburse(0); err == nil {
		t.Error("zero total accepted")
	}
	if err := e.Disburse(-5); err == nil {
		t.Error("negative total accepted")
	}
}

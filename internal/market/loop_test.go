package market

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNewLoopValidation(t *testing.T) {
	e := newTestExchange(t)
	if _, err := NewLoop(nil, time.Second); err == nil {
		t.Error("nil exchange accepted")
	}
	if _, err := NewLoop(e, 0); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := NewLoop(e, -time.Second); err == nil {
		t.Error("negative epoch accepted")
	}
}

func TestLoopTickIdleAndSettle(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoop(e, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Empty book: an idle tick, not an error.
	rec, err := l.Tick()
	if rec != nil || err != nil {
		t.Fatalf("idle tick = %v, %v", rec, err)
	}
	// One order: the tick settles it.
	if _, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 50); err != nil {
		t.Fatal(err)
	}
	rec, err = l.Tick()
	if err != nil || rec == nil || rec.Settled != 1 {
		t.Fatalf("settling tick = %+v, %v", rec, err)
	}
}

func TestLoopTickCountsNonConvergence(t *testing.T) {
	e := nonConvergentExchange(t)
	l, err := NewLoop(e, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var cbErr error
	l.OnTick = func(rec *AuctionRecord, err error) { cbErr = err }
	if _, err := l.Tick(); err == nil {
		t.Fatal("non-convergence not reported")
	}
	if cbErr == nil {
		t.Error("OnTick not called with the error")
	}
	// The batch stayed open, so the next tick retries it.
	if got := len(e.OpenOrders()); got != 2 {
		t.Errorf("open orders = %d, want 2", got)
	}
}

func TestServeStopsOnCancel(t *testing.T) {
	e := newTestExchange(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	l, err := NewLoop(e, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- l.Run(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// TestEpochLoopUnderConcurrentSubmits is the acceptance-criteria test:
// ≥ 8 goroutines submit orders while the epoch loop settles them (run
// with -race). Every submitted order must eventually leave the book.
func TestEpochLoopUnderConcurrentSubmits(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 10
	const perG = 20
	for i := 0; i < goroutines; i++ {
		if err := e.OpenAccount(team(i)); err != nil {
			t.Fatal(err)
		}
	}
	loop, err := NewLoop(e, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); loop.Run(ctx) }()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tm := team(g)
			for i := 0; i < perG; i++ {
				// Heterogeneous limits so the clock finds a clearing
				// price with winners on both sides of it.
				limit := 20 + float64((i*7+g*13)%80)
				if _, err := e.SubmitProduct(tm, "batch-compute", 1, []string{"r2"}, limit); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Let the loop drain the tail of the book, then stop it.
	deadline := time.Now().Add(5 * time.Second)
	for len(e.OpenOrders()) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-loopDone

	if got := len(e.OpenOrders()); got != 0 {
		t.Fatalf("%d orders still open after epoch loop drain", got)
	}
	if got := len(e.Orders()); got != goroutines*perG {
		t.Fatalf("orders = %d, want %d", got, goroutines*perG)
	}
	if len(e.History()) == 0 {
		t.Error("no auction settled, expected settlement activity")
	}
	if !ledgerBalanced(e, 1e-6) {
		t.Error("ledger unbalanced after epoch loop")
	}
}

func team(i int) string {
	return "team" + string(rune('a'+i))
}

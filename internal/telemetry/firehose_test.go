package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFirehoseDeliversInOrder(t *testing.T) {
	f := NewFirehose()
	sub := f.Subscribe(16)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		f.Publish("test", "tick", i)
	}
	for i := 0; i < 10; i++ {
		ev := <-sub.C
		if ev.Payload.(int) != i {
			t.Fatalf("event %d: payload = %v", i, ev.Payload)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Source != "test" || ev.Kind != "tick" {
			t.Fatalf("event %d: source/kind = %q/%q", i, ev.Source, ev.Kind)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d, want 0", d)
	}
}

// TestFirehoseDropOldest pins the drop-oldest contract exactly: a
// stalled subscriber with a buffer of N that receives N+K publishes
// drops exactly K events — the K *oldest* — and its buffer holds the
// newest N.
func TestFirehoseDropOldest(t *testing.T) {
	const buf, total = 4, 11
	f := NewFirehose()
	sub := f.Subscribe(buf)
	defer sub.Close()
	for i := 0; i < total; i++ {
		f.Publish("test", "tick", i)
	}
	if d := sub.Dropped(); d != total-buf {
		t.Fatalf("Dropped() = %d, want %d", d, total-buf)
	}
	if d := f.Dropped(); d != total-buf {
		t.Fatalf("firehose Dropped() = %d, want %d", d, total-buf)
	}
	// The survivors are the newest buf events, still in order.
	for i := total - buf; i < total; i++ {
		ev := <-sub.C
		if ev.Payload.(int) != i {
			t.Fatalf("surviving event payload = %v, want %d", ev.Payload, i)
		}
	}
	select {
	case ev := <-sub.C:
		t.Fatalf("unexpected extra event %v", ev)
	default:
	}
}

func TestFirehoseMultipleSubscribersIndependentDrops(t *testing.T) {
	f := NewFirehose()
	wide := f.Subscribe(64)
	narrow := f.Subscribe(2)
	defer wide.Close()
	defer narrow.Close()
	for i := 0; i < 10; i++ {
		f.Publish("test", "tick", i)
	}
	if d := wide.Dropped(); d != 0 {
		t.Fatalf("wide subscriber dropped %d", d)
	}
	if d := narrow.Dropped(); d != 8 {
		t.Fatalf("narrow subscriber dropped %d, want 8", d)
	}
	if n := f.Subscribers(); n != 2 {
		t.Fatalf("Subscribers() = %d, want 2", n)
	}
	if n := f.Published(); n != 10 {
		t.Fatalf("Published() = %d, want 10", n)
	}
}

func TestFirehoseCloseStopsDeliveryAndRange(t *testing.T) {
	f := NewFirehose()
	sub := f.Subscribe(8)
	f.Publish("test", "tick", 1)
	f.Publish("test", "tick", 2)
	sub.Close()
	sub.Close() // idempotent
	f.Publish("test", "tick", 3)
	var got []int
	for ev := range sub.C { // terminates: Close closed the channel
		got = append(got, ev.Payload.(int))
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", got)
	}
	if f.Active() {
		t.Fatal("Active() after last Close")
	}
}

func TestFirehoseNilIsInert(t *testing.T) {
	var f *Firehose
	if f.Active() {
		t.Fatal("nil firehose Active")
	}
	f.Publish("test", "tick", nil) // must not panic
	if f.Published() != 0 || f.Subscribers() != 0 || f.Dropped() != 0 {
		t.Fatal("nil firehose reported non-zero counters")
	}
}

// TestFirehosePublishNoSubscriberAllocFree pins the idle-path
// contract at the package level: with no subscriber, Publish performs
// zero allocations (the market-level guard in the root bench suite
// pins the same property end-to-end through Submit).
func TestFirehosePublishNoSubscriberAllocFree(t *testing.T) {
	f := NewFirehose()
	payload := &Event{} // prebuilt; callers guard payload construction with Active()
	allocs := testing.AllocsPerRun(1000, func() {
		f.Publish("test", "tick", payload)
	})
	if allocs != 0 {
		t.Fatalf("Publish with no subscriber: %v allocs/op, want 0", allocs)
	}
}

// TestFirehoseConcurrentPublishersAndStalls exercises the drop loop
// under contention (meaningful chiefly under -race): many publishers,
// one slow reader, one reader that never drains. Nothing may deadlock,
// delivery to the draining reader plus its drops must account for
// every publish it was subscribed for.
func TestFirehoseConcurrentPublishersAndStalls(t *testing.T) {
	const publishers, perPublisher = 8, 500
	f := NewFirehose()
	stalled := f.Subscribe(4)
	defer stalled.Close()
	draining := f.Subscribe(32)

	var received int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range draining.C {
			received++
			time.Sleep(time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				f.Publish("test", "tick", p)
			}
		}(p)
	}
	wg.Wait()
	draining.Close()
	<-done
	total := publishers * perPublisher
	if got := received + int(draining.Dropped()); got != total {
		t.Fatalf("draining subscriber: received %d + dropped %d = %d, want %d",
			received, draining.Dropped(), got, total)
	}
	// The stalled subscriber still holds its buffer's worth; the rest
	// must be accounted as drops, monotonically.
	if got := int(stalled.Dropped()); got != total-4 {
		t.Fatalf("stalled subscriber dropped %d, want %d", got, total-4)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(50 * time.Millisecond)  // bucket 2
	h.Observe(2 * time.Second)        // +Inf
	s := h.Snapshot()
	want := []uint64{1, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Inf != 1 {
		t.Fatalf("Inf = %d, want 1", s.Inf)
	}
	wantSum := (500*time.Microsecond + 7*time.Millisecond + 50*time.Millisecond + 2*time.Second).Seconds()
	if diff := s.Sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // no-op, no panic
	if got := nilH.Snapshot(); got.Inf != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

func TestExpositionFormat(t *testing.T) {
	var e Exposition
	e.Add("m_total", "counter", "A counter.", nil, 42)
	e.Add("m_open", "gauge", "A gauge.", nil, 3)
	e.Add("m_by_pool", "gauge", "Per pool.", []string{"pool", "r1/cpu"}, 1.5)
	e.Add("m_by_pool", "gauge", "Per pool.", []string{"pool", "r2/cpu"}, 2.5)
	e.AddHistogram("m_lat_seconds", "Latency.", nil, HistogramSnapshot{
		Bounds: []float64{0.001, 0.01},
		Counts: []uint64{3, 2},
		Inf:    1,
		Sum:    0.25,
	})
	out := e.String()
	for _, want := range []string{
		"# HELP m_total A counter.\n# TYPE m_total counter\nm_total 42\n",
		"# TYPE m_open gauge\nm_open 3\n",
		"m_by_pool{pool=\"r1/cpu\"} 1.5\nm_by_pool{pool=\"r2/cpu\"} 2.5\n",
		"m_lat_seconds_bucket{le=\"0.001\"} 3\n",
		"m_lat_seconds_bucket{le=\"0.01\"} 5\n",
		"m_lat_seconds_bucket{le=\"+Inf\"} 6\n",
		"m_lat_seconds_sum 0.25\nm_lat_seconds_count 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "%!") {
		t.Fatalf("format artifact in exposition:\n%s", out)
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	var e Exposition
	e.Add("m", "gauge", "Escapes.", []string{"k", `a"b\c` + "\nd"}, 1)
	want := `m{k="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(e.String(), want) {
		t.Fatalf("escaped sample missing %q in:\n%s", want, e.String())
	}
}

// TestExpositionOneHeaderPerFamily: two markets (regions) adding to the
// same families, interleaved as a federated scrape adds them, get one
// header per family; the members stay grouped under it in add order and
// the families in first-add order.
func TestExpositionOneHeaderPerFamily(t *testing.T) {
	var e Exposition
	lat := HistogramSnapshot{Bounds: []float64{0.001}, Counts: []uint64{1}, Sum: 0.0005}
	for _, region := range []string{"hot", "cold"} {
		e.Add("m_orders_total", "counter", "Orders.", []string{"region", region}, 1)
		e.Add("m_open", "gauge", "Open.", []string{"region", region}, 2)
		e.AddHistogram("m_fsync_seconds", "Fsync.", []string{"region", region}, lat)
	}
	want := "# HELP m_orders_total Orders.\n# TYPE m_orders_total counter\n" +
		"m_orders_total{region=\"hot\"} 1\nm_orders_total{region=\"cold\"} 1\n" +
		"# HELP m_open Open.\n# TYPE m_open gauge\n" +
		"m_open{region=\"hot\"} 2\nm_open{region=\"cold\"} 2\n" +
		"# HELP m_fsync_seconds Fsync.\n# TYPE m_fsync_seconds histogram\n" +
		"m_fsync_seconds_bucket{region=\"hot\",le=\"0.001\"} 1\n" +
		"m_fsync_seconds_bucket{region=\"hot\",le=\"+Inf\"} 1\n" +
		"m_fsync_seconds_sum{region=\"hot\"} 0.0005\nm_fsync_seconds_count{region=\"hot\"} 1\n" +
		"m_fsync_seconds_bucket{region=\"cold\",le=\"0.001\"} 1\n" +
		"m_fsync_seconds_bucket{region=\"cold\",le=\"+Inf\"} 1\n" +
		"m_fsync_seconds_sum{region=\"cold\"} 0.0005\nm_fsync_seconds_count{region=\"cold\"} 1\n"
	if got := e.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHealthSnapshot(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := NewHealth(t0)
	h.SetJournal("/tmp/j")
	s := h.Snapshot(t0.Add(5 * time.Second))
	if !s.Healthy || !s.JournalLocked || s.JournalDir != "/tmp/j" {
		t.Fatalf("initial snapshot = %+v", s)
	}
	if s.UptimeSeconds != 5 || s.LastCheckAgoMS != -1 {
		t.Fatalf("initial snapshot = %+v", s)
	}

	h.RecordCheck(t0.Add(6*time.Second), []string{"ledger unbalanced"})
	s = h.Snapshot(t0.Add(7 * time.Second))
	if s.Healthy || s.ChecksTotal != 1 || s.CheckFailures != 1 {
		t.Fatalf("after failure: %+v", s)
	}
	if len(s.Violations) != 1 || s.Violations[0] != "ledger unbalanced" {
		t.Fatalf("after failure: violations = %v", s.Violations)
	}
	if s.LastCheckAgoMS != 1000 {
		t.Fatalf("after failure: age = %dms", s.LastCheckAgoMS)
	}

	h.RecordCheck(t0.Add(8*time.Second), nil)
	s = h.Snapshot(t0.Add(8 * time.Second))
	if !s.Healthy || s.ChecksTotal != 2 || s.CheckFailures != 1 || s.Violations != nil {
		t.Fatalf("after recovery: %+v", s)
	}

	var nilH *Health
	nilH.SetJournal("x")
	nilH.RecordCheck(t0, nil)
	if got := nilH.Snapshot(t0); !got.Healthy {
		t.Fatal("nil health not healthy")
	}
}

func TestFirehoseSubscribeUnsubscribeChurn(t *testing.T) {
	f := NewFirehose()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.Publish("test", "tick", i)
		}
	}()
	for i := 0; i < 50; i++ {
		sub := f.Subscribe(4)
		<-sub.C
		sub.Close()
	}
	close(stop)
	wg.Wait()
	if n := f.Subscribers(); n != 0 {
		t.Fatalf("Subscribers() = %d after churn, want 0", n)
	}
	_ = fmt.Sprintf("%d", f.Published())
}

// TestSendOnClosedSubscription: a publisher that reaches a subscription
// after Close (the race Close's flag guards) neither panics on the closed
// channel nor delivers or counts a drop.
func TestSendOnClosedSubscription(t *testing.T) {
	f := NewFirehose()
	sub := f.Subscribe(1)
	sub.Close()
	sub.send(Event{Kind: "late"})
	if _, ok := <-sub.C; ok {
		t.Fatal("a closed subscription delivered an event")
	}
	if sub.Dropped() != 0 || f.Dropped() != 0 {
		t.Fatalf("dropped = %d (firehose %d), want none", sub.Dropped(), f.Dropped())
	}
}

package fault

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"clustermarket/internal/journal"
	"clustermarket/internal/telemetry"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	inj.Arm([]Window{{Op: OpDiskWrite, Kind: EIO, Count: 1}})
	inj.ArmEpoch(0, []string{"us"}, nil)
	inj.AttachTelemetry(telemetry.NewFirehose())
	if err := inj.Region(OpRegionOrder, "us"); err != nil {
		t.Errorf("nil injector injected: %v", err)
	}
	if inj.Injected() != 0 || inj.Pending() != 0 || inj.Chaos() {
		t.Error("nil injector reports state")
	}
}

func TestWindowCountConsumes(t *testing.T) {
	inj := New()
	inj.Arm([]Window{{Op: OpRegionOrder, Kind: Unreachable, Count: 2}})
	for n := 0; n < 2; n++ {
		if err := inj.Region(OpRegionOrder, "us"); !errors.Is(err, ErrInjected) {
			t.Fatalf("injection %d = %v, want ErrInjected", n, err)
		}
	}
	if err := inj.Region(OpRegionOrder, "us"); err != nil {
		t.Errorf("exhausted window still fires: %v", err)
	}
	if got := inj.Injected(); got != 2 {
		t.Errorf("Injected = %d, want 2", got)
	}
	if got := inj.Pending(); got != 0 {
		t.Errorf("Pending = %d, want 0", got)
	}
}

func TestScopeMatching(t *testing.T) {
	inj := New()
	inj.Arm([]Window{
		{Op: OpRegionOrder, Scope: "eu", Kind: Unreachable, Count: 1},
		{Op: OpDiskWrite, Scope: "eu/wal", Kind: EIO, Count: 1},
	})
	// Region scopes match exactly: "eu-west" must not consume "eu".
	if err := inj.Region(OpRegionOrder, "eu-west"); err != nil {
		t.Errorf("region scope substring-matched: %v", err)
	}
	if err := inj.Region(OpRegionOrder, "eu"); !errors.Is(err, ErrInjected) {
		t.Errorf("exact region scope missed: %v", err)
	}
	// Disk scopes match by path substring.
	if _, hit := inj.take(OpDiskWrite, "/tmp/x/us/wal"); hit {
		t.Error("disk scope matched the wrong path")
	}
	if _, hit := inj.take(OpDiskWrite, "/tmp/x/eu/wal"); !hit {
		t.Error("disk scope substring missed")
	}
}

func TestLatencyFaultSucceeds(t *testing.T) {
	inj := New()
	inj.Arm([]Window{{Op: OpRegionGossip, Kind: Latency, Count: 1}})
	if err := inj.Region(OpRegionGossip, "us"); err != nil {
		t.Errorf("latency fault failed the call: %v", err)
	}
	if inj.Injected() != 1 {
		t.Error("latency fault not counted as injected")
	}
}

func TestArmEpochReplacesWindows(t *testing.T) {
	inj := New()
	inj.ArmEpoch(1, nil, []Window{{Op: OpDiskWrite, Kind: EIO, Count: 3}})
	if got := inj.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	// The next epoch's arm replaces, not appends — unconsumed windows
	// (disk faults armed on an in-memory run, say) cannot accumulate.
	inj.ArmEpoch(2, nil, nil)
	if got := inj.Pending(); got != 0 {
		t.Errorf("Pending after re-arm = %d, want 0", got)
	}
}

// TestChaosScheduleDeterministic pins chaos mode's reproducibility:
// the same seed and ArmEpoch sequence yield identical windows.
func TestChaosScheduleDeterministic(t *testing.T) {
	schedule := func(seed int64) [][]Window {
		inj := NewChaos(seed)
		var out [][]Window
		for epoch := 0; epoch < 20; epoch++ {
			inj.ArmEpoch(epoch, []string{"us", "eu"}, nil)
			inj.mu.Lock()
			out = append(out, append([]Window(nil), inj.windows...))
			inj.mu.Unlock()
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same chaos seed produced different schedules")
	}
	if reflect.DeepEqual(a, schedule(8)) {
		t.Error("different chaos seeds produced identical schedules")
	}
	armed := 0
	for _, ws := range a {
		armed += len(ws)
	}
	if armed == 0 {
		t.Error("20 chaos epochs armed no windows")
	}
}

func TestInjectionPublishedToFirehose(t *testing.T) {
	fire := telemetry.NewFirehose()
	sub := fire.Subscribe(8)
	defer sub.Close()
	inj := New()
	inj.AttachTelemetry(fire)
	inj.Arm([]Window{{Op: OpRegionSettle, Scope: "us", Kind: Unreachable, Count: 1}})
	if err := inj.Region(OpRegionSettle, "us"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Region = %v", err)
	}
	ev := <-sub.C
	if ev.Source != EventSource || ev.Kind != EvFaultInjected {
		t.Fatalf("event = %s/%s", ev.Source, ev.Kind)
	}
	in, ok := ev.Payload.(*Injection)
	if !ok {
		t.Fatalf("payload type %T", ev.Payload)
	}
	if in.Op != OpRegionSettle || in.Scope != "us" || in.Kind != Unreachable || in.Seq != 1 {
		t.Errorf("injection payload = %+v", in)
	}
}

// TestFaultFS drives each disk fault kind through the journal.FS seam.
func TestFaultFS(t *testing.T) {
	dir := t.TempDir()
	inj := New()
	fs := NewFS(inj, nil)

	name := filepath.Join(dir, "f")
	file, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	// ENOSPC write: nothing lands.
	inj.Arm([]Window{{Op: OpDiskWrite, Kind: ENOSPC, Count: 1}})
	if n, err := file.Write([]byte("abcdefgh")); !errors.Is(err, syscall.ENOSPC) || n != 0 {
		t.Errorf("ENOSPC write = %d, %v", n, err)
	}
	// Short write: half the buffer lands, then EIO.
	inj.Arm([]Window{{Op: OpDiskWrite, Kind: ShortWrite, Count: 1}})
	if n, err := file.Write([]byte("abcdefgh")); !errors.Is(err, syscall.EIO) || n != 4 {
		t.Errorf("short write = %d, %v", n, err)
	}
	// A clean write passes through.
	if n, err := file.Write([]byte("ok")); err != nil || n != 2 {
		t.Errorf("clean write = %d, %v", n, err)
	}
	// Fsync faults.
	inj.Arm([]Window{{Op: OpDiskFsync, Kind: EIO, Count: 1}})
	if err := file.Sync(); !errors.Is(err, ErrInjected) {
		t.Errorf("fsync = %v", err)
	}
	if err := file.Sync(); err != nil {
		t.Errorf("healed fsync = %v", err)
	}
	// Rename faults.
	inj.Arm([]Window{{Op: OpDiskRename, Kind: EIO, Count: 1}})
	if err := fs.Rename(name, name+"2"); !errors.Is(err, ErrInjected) {
		t.Errorf("rename = %v", err)
	}
	if err := fs.Rename(name, name+"2"); err != nil {
		t.Errorf("healed rename = %v", err)
	}
	// Reads and truncates pass through even with write faults armed —
	// the repair paths must never be faulted.
	inj.Arm([]Window{{Op: OpDiskWrite, Kind: EIO, Count: 99}})
	if _, err := fs.ReadFile(name + "2"); err != nil {
		t.Errorf("read under write faults = %v", err)
	}
	if err := fs.Truncate(name+"2", 0); err != nil {
		t.Errorf("truncate under write faults = %v", err)
	}
	if err := fs.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Errorf("mkdir under write faults = %v", err)
	}
}

// TestFaultFSJournalHeals proves the end-to-end heal loop: a journal
// under a fault FS heals a one-shot ENOSPC inside Append, survives a
// burst that outlasts the loop via its append rollback, and appends
// again, with nothing called in between, once the burst is spent.
func TestFaultFSJournalHeals(t *testing.T) {
	dir := t.TempDir()
	inj := New()
	j, rec, err := journal.Open(dir, journal.Options{FS: NewFS(inj, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !rec.Empty() {
		t.Fatal("fresh dir not empty")
	}
	if _, err := j.Append([]byte(`{"k":"a"}`)); err != nil {
		t.Fatal(err)
	}
	inj.Arm([]Window{{Op: OpDiskWrite, Kind: ENOSPC, Count: 1}})
	if _, err := j.Append([]byte(`{"k":"b"}`)); err != nil {
		t.Fatalf("append over a one-shot ENOSPC = %v, want healed", err)
	}
	// One fault per attempt: the first append and its four retries.
	inj.Arm([]Window{{Op: OpDiskWrite, Kind: ENOSPC, Count: 5}})
	if _, err := j.Append([]byte(`{"k":"c"}`)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append faulted past the heal loop = %v", err)
	}
	if !j.Failing() {
		t.Fatal("journal past its heal loop does not report failing")
	}
	if _, err := j.Append([]byte(`{"k":"c"}`)); err != nil {
		t.Fatalf("append after heal = %v", err)
	}
	if j.Failing() {
		t.Fatal("journal still failing after an append succeeded")
	}
	j.Close()

	j2, rec2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := fmt.Sprintf("%s", rec2.Records); got != `[{"k":"a"} {"k":"b"} {"k":"c"}]` || rec2.Truncated {
		t.Errorf("recovered %s (truncated=%v), want a, b and c once each", got, rec2.Truncated)
	}
}

// Chaos reports whether the injector arms random windows.
func (i *Injector) Chaos() bool { return i != nil && i.rng != nil }

// Pending returns the total remaining count across armed windows.
func (i *Injector) Pending() int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, w := range i.windows {
		n += w.Count
	}
	return n
}

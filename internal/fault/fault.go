// Package fault is a deterministic, seed-driven fault injector for the
// repo's I/O boundaries: journal disk operations (through the journal.FS
// seam) and federation region calls and gossip. It exists so the
// degradation machinery — the journal's heal loop and append rollback,
// the federation's skipped settlements and stale quotes — is exercised
// by scripted, reproducible schedules instead of hope.
//
// The model is a finite set of armed Windows: each names an operation
// boundary (Op), an optional scope (a path substring for disk ops, a
// region name for region ops), a fault Kind, and how many times it
// fires. Matching consumes the window's count under one mutex in call
// order, so a given schedule injects the same faults at the same
// operations on every run with the same workload — which is what lets
// the scenario engine demand that a run whose faults all heal
// fingerprint-matches the fault-free run bit-identically. Chaos mode
// (NewChaos) layers seeded-random windows on top each epoch; two runs
// with the same chaos seed still see identical schedules.
//
// Every injection is published to the telemetry firehose under its own
// Source ("fault"), so an operator watching the SSE stream sees faults
// land in real time and tests can count them; the injector never
// journals anything (injections are operational noise, not market
// history).
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"time"

	"clustermarket/internal/telemetry"
)

// Op identifies one injectable operation boundary.
type Op string

const (
	// OpDiskWrite faults WAL frame and snapshot/header writes.
	OpDiskWrite Op = "disk-write"
	// OpDiskFsync faults fsyncs of the WAL, snapshots, and directories.
	OpDiskFsync Op = "disk-fsync"
	// OpDiskRename faults the tmp→final renames that install snapshots
	// and rotated WALs.
	OpDiskRename Op = "disk-rename"
	// OpRegionOrder faults a region-bound order submission.
	OpRegionOrder Op = "region-order"
	// OpRegionGossip faults a region's price-board gossip (the quote is
	// lost; the board goes stale).
	OpRegionGossip Op = "region-gossip"
	// OpRegionSettle faults a region's settlement round before it runs.
	OpRegionSettle Op = "region-settle"
)

// Kind is the flavor of an injected fault.
type Kind string

const (
	// ENOSPC fails the operation with syscall.ENOSPC.
	ENOSPC Kind = "enospc"
	// EIO fails the operation with syscall.EIO.
	EIO Kind = "eio"
	// ShortWrite writes only half the buffer, then fails — the torn
	// write the journal's rollback must make unreadable.
	ShortWrite Kind = "short-write"
	// Latency delays the operation briefly, then lets it succeed.
	Latency Kind = "latency"
	// Unreachable fails a region call as if the region were partitioned
	// away.
	Unreachable Kind = "unreachable"
)

// Window arms Count injections of Kind at Op. Scope narrows the match:
// for disk ops a substring of the file path (so a schedule can target
// one region's journal), for region ops the region name; "" matches
// anything.
type Window struct {
	Op    Op
	Scope string
	Kind  Kind
	Count int
}

// ErrInjected is the base of every error the injector produces; test
// with errors.Is to tell an injected fault from organic failure.
var ErrInjected = errors.New("fault: injected")

// ErrUnreachable is the injected region-partition error.
var ErrUnreachable = fmt.Errorf("%w: region unreachable", ErrInjected)

var (
	errENOSPC = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	errEIO    = fmt.Errorf("%w: %w", ErrInjected, syscall.EIO)
)

// EventSource is the firehose Source the injector publishes under. The
// scenario report reconstructor ignores unknown sources, so fault
// events ride the same stream as market events without perturbing
// fingerprint reconstruction.
const EventSource = "fault"

// EvFaultInjected is the kind of every injection event.
const EvFaultInjected = "fault-injected"

// Injection is the telemetry payload of one injected fault.
type Injection struct {
	Op    Op     `json:"op"`
	Scope string `json:"scope,omitempty"`
	Kind  Kind   `json:"kind"`
	// Seq is the injector-local 1-based injection count.
	Seq uint64 `json:"seq"`
}

// latencyDelay is how long a Latency fault stalls its operation: long
// enough to register in the fsync-latency histogram, short enough that
// soak runs stay fast.
const latencyDelay = time.Millisecond

// Injector consumes armed fault windows. A nil *Injector is a valid
// no-op: every check reports "no fault", so production paths hold a
// possibly-nil injector and check unconditionally. The mutex is a leaf:
// nothing is called while it is held.
type Injector struct {
	mu       sync.Mutex
	windows  []Window
	rng      *rand.Rand // non-nil = chaos mode
	injected uint64

	fire *telemetry.Firehose
}

// New returns an injector with no windows armed.
//
//marketlint:oracle TestFaultScenariosFingerprintMatchFaultFree TestSettleFaultSkipsRegion
func New() *Injector { return &Injector{} }

// NewChaos returns an injector that, in addition to any scripted
// windows, arms seeded-random windows on each ArmEpoch call. The same
// seed yields the same schedule.
//
//marketlint:oracle TestChaosSameSeedBitIdentical
func NewChaos(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// AttachTelemetry publishes every injection to the firehose.
//
//marketlint:oracle TestInjectionPublishedToFirehose TestEventsSSEFaultKinds
func (i *Injector) AttachTelemetry(f *telemetry.Firehose) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.fire = f
	i.mu.Unlock()
}

// Arm replaces the armed windows.
//
//marketlint:oracle TestFaultScenariosFingerprintMatchFaultFree TestSettleFaultSkipsRegion
func (i *Injector) Arm(ws []Window) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.windows = append(i.windows[:0], ws...)
	i.mu.Unlock()
}

// ArmEpoch replaces the armed windows with the scripted set for this
// epoch and, in chaos mode, layers seeded-random windows on top.
// Replacing (not appending) keeps runs that never consume a window —
// an in-memory run armed with disk faults, say — from accumulating
// stale schedules. Counts stay small (≤3 per window) so the bounded
// inline retries in the journal's callers heal every burst.
func (i *Injector) ArmEpoch(epoch int, regions []string, scripted []Window) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.windows = append(i.windows[:0], scripted...)
	if i.rng == nil {
		return
	}
	if i.rng.Float64() < 0.5 {
		diskOps := [...]Op{OpDiskWrite, OpDiskFsync, OpDiskRename}
		diskKinds := [...]Kind{ENOSPC, EIO, ShortWrite, Latency}
		i.windows = append(i.windows, Window{
			Op:    diskOps[i.rng.Intn(len(diskOps))],
			Kind:  diskKinds[i.rng.Intn(len(diskKinds))],
			Count: 1 + i.rng.Intn(3),
		})
	}
	if len(regions) > 0 && i.rng.Float64() < 0.5 {
		regionOps := [...]Op{OpRegionOrder, OpRegionGossip, OpRegionSettle}
		regionKinds := [...]Kind{Unreachable, Latency}
		i.windows = append(i.windows, Window{
			Op:    regionOps[i.rng.Intn(len(regionOps))],
			Scope: regions[i.rng.Intn(len(regions))],
			Kind:  regionKinds[i.rng.Intn(len(regionKinds))],
			Count: 1 + i.rng.Intn(2),
		})
	}
}

// Injected returns how many faults have fired so far.
//
//marketlint:oracle TestWindowCountConsumes TestChaosSameSeedBitIdentical
func (i *Injector) Injected() uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.injected
}

// take consumes one matching window count, if any. The telemetry
// publish happens outside the mutex so the injector's lock stays a
// leaf.
func (i *Injector) take(op Op, scope string) (Kind, bool) {
	if i == nil {
		return "", false
	}
	i.mu.Lock()
	var kind Kind
	hit := false
	var seq uint64
	for w := range i.windows {
		win := &i.windows[w]
		if win.Count <= 0 || win.Op != op {
			continue
		}
		if win.Scope != "" && !matchScope(op, scope, win.Scope) {
			continue
		}
		win.Count--
		i.injected++
		kind, hit, seq = win.Kind, true, i.injected
		break
	}
	fire := i.fire
	i.mu.Unlock()
	if hit && fire.Active() {
		fire.Publish(EventSource, EvFaultInjected, &Injection{Op: op, Scope: scope, Kind: kind, Seq: seq})
	}
	return kind, hit
}

// matchScope: disk ops match by path substring, region ops by exact
// region name.
func matchScope(op Op, scope, want string) bool {
	switch op {
	case OpDiskWrite, OpDiskFsync, OpDiskRename:
		return strings.Contains(scope, want)
	default:
		return scope == want
	}
}

// Region consumes an armed fault for a region-facing operation and
// returns the injected error, or nil when nothing is armed. Latency
// faults stall briefly and then succeed; everything else reports the
// region unreachable.
func (i *Injector) Region(op Op, region string) error {
	kind, ok := i.take(op, region)
	if !ok {
		return nil
	}
	if kind == Latency {
		time.Sleep(latencyDelay)
		return nil
	}
	return fmt.Errorf("fault: %s %s: %w", op, region, ErrUnreachable)
}

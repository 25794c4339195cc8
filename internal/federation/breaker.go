package federation

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"clustermarket/internal/telemetry"
)

// Per-region circuit breaker. A region that fails its calls repeatedly
// — in practice, a region partitioned away by the fault injector — is
// taken out of the routing rotation: the cheapest-first router skips
// legs whose region's breaker is open, falling through to the next leg
// with the existing at-most-one-leg failover, so a partition costs one
// failed probe per backoff window instead of a failed call per order.
//
// The lifecycle is the classic three-state machine with one twist: the
// open→half-open backoff is counted in *denied attempts*, not wall
// time. The scenario engine replays identical workloads and demands
// bit-identical fingerprints; a wall-clock breaker would reopen at
// schedule-dependent moments, while an attempt-count breaker is a pure
// function of the call sequence. The denial quota doubles each time the
// breaker reopens, plus a small deterministic jitter derived from
// (region, reopen count) so a fleet of breakers does not probe in
// lockstep.
const (
	// breakerThreshold is how many consecutive region-call failures open
	// the breaker.
	breakerThreshold = 3
	// breakerBaseQuota is the denied-attempt count before the first
	// half-open probe; it doubles per reopen (capped by breakerMaxShift).
	breakerBaseQuota = 4
	breakerMaxShift  = 6
	// breakerJitterSpan bounds the deterministic jitter added to each
	// quota.
	breakerJitterSpan = 3
)

// Breaker state names, as surfaced in telemetry and /healthz.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// EvFedBreaker is the telemetry kind published when a region's breaker
// changes state. Breaker events are operational weather: published to
// the firehose, never journaled (replay reconstructs routing results,
// and a recovered router starts with fresh breakers).
const EvFedBreaker = "breaker-state-changed"

// BreakerChange is the telemetry payload of one breaker transition.
type BreakerChange struct {
	Region string `json:"region"`
	From   string `json:"from"`
	To     string `json:"to"`
	// Fails is the consecutive-failure count at the transition; Opens
	// counts how many times this breaker has opened in total.
	Fails int `json:"fails,omitempty"`
	Opens int `json:"opens,omitempty"`
}

// BreakerStatus is one region's breaker state snapshot, shaped for
// /healthz and /metrics.
type BreakerStatus struct {
	Region string `json:"region"`
	State  string `json:"state"`
	Fails  int    `json:"fails"`
	Opens  int    `json:"opens"`
	// Denials counts attempts denied since the breaker last opened;
	// Quota is how many denials arm the next half-open probe.
	Denials int `json:"denials,omitempty"`
	Quota   int `json:"quota,omitempty"`
}

// breaker is one region's state. All fields are guarded by the owning
// breakerSet's mutex.
type breaker struct {
	region  string
	state   string
	fails   int
	opens   int
	denials int
	quota   int
}

// breakerSet owns every region's breaker, by region index, behind one
// leaf mutex — nothing is called while it is held; state-change events
// are published after release, like the fault injector's.
type breakerSet struct {
	mu       sync.Mutex
	byRegion []breaker
	fire     *telemetry.Firehose
}

func newBreakerSet(regions []*Region) *breakerSet {
	bs := &breakerSet{byRegion: make([]breaker, len(regions))}
	for i, r := range regions {
		b := &bs.byRegion[i]
		b.region, b.state = r.name, BreakerClosed
	}
	return bs
}

func (bs *breakerSet) setFire(f *telemetry.Firehose) {
	bs.mu.Lock()
	bs.fire = f
	bs.mu.Unlock()
}

// quotaFor computes the denial quota after the nth open: doubling
// backoff plus deterministic jitter so breakers across regions (or
// reopens) do not probe in lockstep, yet two runs of the same schedule
// probe at identical points.
func quotaFor(region string, opens int) int {
	shift := opens - 1
	if shift > breakerMaxShift {
		shift = breakerMaxShift
	}
	h := fnv.New32a()
	h.Write([]byte(region))
	h.Write([]byte(strconv.Itoa(opens)))
	return breakerBaseQuota<<uint(shift) + int(h.Sum32()%breakerJitterSpan)
}

// allow reports whether a call to region ri may proceed. An open
// breaker denies and counts the denial; once the denials reach the
// quota the breaker moves to half-open and lets exactly one probe
// through (further calls are denied until the probe reports back via
// success or failure).
func (bs *breakerSet) allow(ri int) bool {
	bs.mu.Lock()
	b := &bs.byRegion[ri]
	var change *BreakerChange
	allowed := true
	switch b.state {
	case BreakerOpen:
		b.denials++
		if b.denials >= b.quota {
			b.state = BreakerHalfOpen
			change = &BreakerChange{Region: b.region, From: BreakerOpen, To: BreakerHalfOpen, Fails: b.fails, Opens: b.opens}
		} else {
			allowed = false
		}
	case BreakerHalfOpen:
		// Probing: traffic flows, and the next success or failure report
		// settles the verdict (close or reopen with a doubled quota).
	}
	fire := bs.fire
	bs.mu.Unlock()
	bs.publish(fire, change)
	return allowed
}

// success reports a healthy call to region ri: any breaker state
// collapses back to closed.
func (bs *breakerSet) success(ri int) {
	bs.mu.Lock()
	b := &bs.byRegion[ri]
	var change *BreakerChange
	if b.state != BreakerClosed {
		change = &BreakerChange{Region: b.region, From: b.state, To: BreakerClosed, Opens: b.opens}
	}
	b.state = BreakerClosed
	b.fails = 0
	b.denials = 0
	fire := bs.fire
	bs.mu.Unlock()
	bs.publish(fire, change)
}

// failure reports a failed call to region ri. Threshold consecutive
// failures open a closed breaker; a failed half-open probe reopens with
// a doubled quota.
func (bs *breakerSet) failure(ri int) {
	bs.mu.Lock()
	b := &bs.byRegion[ri]
	var change *BreakerChange
	b.fails++
	switch b.state {
	case BreakerClosed:
		if b.fails >= breakerThreshold {
			b.opens++
			b.denials = 0
			b.quota = quotaFor(b.region, b.opens)
			b.state = BreakerOpen
			change = &BreakerChange{Region: b.region, From: BreakerClosed, To: BreakerOpen, Fails: b.fails, Opens: b.opens}
		}
	case BreakerHalfOpen:
		b.opens++
		b.denials = 0
		b.quota = quotaFor(b.region, b.opens)
		b.state = BreakerOpen
		change = &BreakerChange{Region: b.region, From: BreakerHalfOpen, To: BreakerOpen, Fails: b.fails, Opens: b.opens}
	}
	fire := bs.fire
	bs.mu.Unlock()
	bs.publish(fire, change)
}

func (bs *breakerSet) publish(fire *telemetry.Firehose, change *BreakerChange) {
	if change == nil || !fire.Active() {
		return
	}
	fire.Publish(EventSource, EvFedBreaker, &FedEvent{Kind: EvFedBreaker, Breaker: change})
}

func (bs *breakerSet) snapshot() []BreakerStatus {
	bs.mu.Lock()
	out := make([]BreakerStatus, 0, len(bs.byRegion))
	for i := range bs.byRegion {
		b := &bs.byRegion[i]
		out = append(out, BreakerStatus{
			Region: b.region, State: b.state, Fails: b.fails,
			Opens: b.opens, Denials: b.denials, Quota: b.quota,
		})
	}
	bs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Region < out[j].Region })
	return out
}

// BreakerStates returns every region's breaker status, sorted by region
// name — the /healthz and /metrics read path.
func (f *Federation) BreakerStates() []BreakerStatus {
	return f.breakers.snapshot()
}

package telemetry

import (
	"sync"
	"time"
)

// Health is the shared state behind a /healthz probe: when the process
// started, whether a journal holds its lock, and the outcome of the
// most recent invariant check. Writers (the serve loop's OnTick hook,
// recovery code) and readers (the HTTP handler) may race; every method
// is safe for concurrent use. A nil *Health is a valid no-op for
// components that run without a probe attached.
type Health struct {
	mu         sync.Mutex
	start      time.Time
	journalDir string // "" when no journal is attached
	checks     uint64
	failures   uint64
	lastCheck  time.Time
	lastBad    []string // violations from the most recent check, nil if clean
}

// NewHealth returns a health record anchored at the given start time.
func NewHealth(start time.Time) *Health {
	return &Health{start: start}
}

// SetJournal records where a journal is attached (holding its
// directory flock); "" means none is.
func (h *Health) SetJournal(dir string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.journalDir = dir
	h.mu.Unlock()
}

// RecordCheck records one invariant-check outcome: the violation
// strings (empty or nil means the check passed) and when it ran.
func (h *Health) RecordCheck(at time.Time, violations []string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.checks++
	if len(violations) > 0 {
		h.failures++
		h.lastBad = append([]string(nil), violations...)
	} else {
		h.lastBad = nil
	}
	h.lastCheck = at
	h.mu.Unlock()
}

// HealthSnapshot is one consistent read of the probe state, shaped for
// direct JSON encoding by the HTTP layer.
type HealthSnapshot struct {
	Healthy        bool     `json:"healthy"`
	UptimeSeconds  float64  `json:"uptime_seconds"`
	JournalDir     string   `json:"journal_dir,omitempty"`
	JournalLocked  bool     `json:"journal_locked"`
	ChecksTotal    uint64   `json:"invariant_checks_total"`
	CheckFailures  uint64   `json:"invariant_failures_total"`
	LastCheckAgoMS int64    `json:"last_check_age_ms"`
	Violations     []string `json:"violations,omitempty"`
}

// Snapshot reads the probe state at the given time. Healthy means the
// most recent invariant check (if any has run) found no violations; a
// probe that has never been checked reports healthy, so a process is
// ready as soon as it serves. A nil *Health snapshots as healthy with
// zero uptime.
func (h *Health) Snapshot(now time.Time) HealthSnapshot {
	if h == nil {
		return HealthSnapshot{Healthy: true, LastCheckAgoMS: -1}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HealthSnapshot{
		Healthy:       len(h.lastBad) == 0,
		JournalDir:    h.journalDir,
		JournalLocked: h.journalDir != "",
		ChecksTotal:   h.checks,
		CheckFailures: h.failures,
		Violations:    h.lastBad,
	}
	if !h.start.IsZero() {
		s.UptimeSeconds = now.Sub(h.start).Seconds()
	}
	if h.lastCheck.IsZero() {
		s.LastCheckAgoMS = -1
	} else {
		s.LastCheckAgoMS = now.Sub(h.lastCheck).Milliseconds()
	}
	return s
}

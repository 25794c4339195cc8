package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Exposition accumulates one Prometheus text-format scrape
// (version 0.0.4: "# HELP"/"# TYPE" headers, then name{labels} value
// samples). It is hand-rolled — the repo takes no external
// dependencies — and covers exactly the subset the market exposes:
// counters, gauges, and fixed-bucket histograms. Not safe for
// concurrent use; build one per scrape.
type Exposition struct {
	b strings.Builder
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatValue renders a sample value. Prometheus accepts Go's
// shortest-representation float encoding.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (e *Exposition) header(name, typ, help string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (e *Exposition) sample(name string, labels []string, v float64) {
	e.b.WriteString(name)
	if len(labels) > 0 {
		e.b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				e.b.WriteByte(',')
			}
			e.b.WriteString(labels[i])
			e.b.WriteString(`="`)
			e.b.WriteString(escapeLabel(labels[i+1]))
			e.b.WriteByte('"')
		}
		e.b.WriteByte('}')
	}
	e.b.WriteByte(' ')
	e.b.WriteString(formatValue(v))
	e.b.WriteByte('\n')
}

// LabeledSeries writes headers for one metric followed by one sample
// per entry. Each entry's labels are alternating key/value pairs.
func (e *Exposition) LabeledSeries(name, typ, help string, entries []LabeledValue) {
	e.header(name, typ, help)
	for _, ent := range entries {
		e.sample(name, ent.Labels, ent.Value)
	}
}

// LabeledValue is one sample of a labeled metric: alternating
// key/value label pairs plus the value.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// LabeledHistogram is one labeled member of a histogram family.
type LabeledHistogram struct {
	Labels []string
	Snap   HistogramSnapshot
}

// HistogramSeries writes one histogram family with one labeled member
// per entry (e.g. per-region fsync latency): each member's cumulative
// _bucket samples carry the member labels plus le, and its _sum and
// _count carry the member labels alone.
func (e *Exposition) HistogramSeries(name, help string, entries []LabeledHistogram) {
	e.header(name, "histogram", help)
	for _, ent := range entries {
		h := ent.Snap
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			e.sample(name+"_bucket", append(append([]string(nil), ent.Labels...), "le", formatValue(bound)), float64(cum))
		}
		cum += h.Inf
		e.sample(name+"_bucket", append(append([]string(nil), ent.Labels...), "le", "+Inf"), float64(cum))
		e.sample(name+"_sum", ent.Labels, h.Sum)
		e.sample(name+"_count", ent.Labels, float64(cum))
	}
}

// String returns the accumulated exposition text.
func (e *Exposition) String() string { return e.b.String() }

// ContentType is the exposition format's content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe. Buckets are cumulative only at snapshot time; Observe
// touches exactly one bucket counter plus the sum and is lock-free.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64
	sumNS  atomic.Int64 // sum in nanoseconds; converted at snapshot
}

// NewHistogram returns a histogram over the given ascending upper
// bounds (in seconds).
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// NewFsyncHistogram returns the bucket layout used for journal fsync
// latency: 50µs to ~1s, roughly ×4 per bucket.
func NewFsyncHistogram() *Histogram {
	return NewHistogram(50e-6, 200e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	sec := d.Seconds()
	placed := false
	for i, bound := range h.bounds {
		if sec <= bound {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sumNS.Add(int64(d))
}

// HistogramSnapshot is a point-in-time copy: per-bucket (non-
// cumulative) counts aligned with Bounds, the overflow count, and the
// sum in seconds.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Inf    uint64
	Sum    float64
}

// Snapshot copies the histogram's current state. Concurrent Observe
// calls may straddle the copy; each sample lands in either this
// snapshot or the next, never half in each bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Inf = h.inf.Load()
	s.Sum = time.Duration(h.sumNS.Load()).Seconds()
	return s
}

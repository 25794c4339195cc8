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
// counters, gauges, and fixed-bucket histograms. Samples are collected
// by family, so several markets (one per region on a federated scrape)
// can add to one family and it is still written once, with one header;
// families render in first-add order, keeping scrapes deterministic and
// diffable. The zero value is ready to use. Not safe for concurrent use;
// build one per scrape.
type Exposition struct {
	order []*family
	fams  map[string]*family
}

type family struct {
	name, typ, help string
	members         []member
}

// member is one labeled sample, or one labeled histogram in a
// histogram family. Labels are alternating key/value pairs.
type member struct {
	labels []string
	value  float64
	hist   HistogramSnapshot
}

func (e *Exposition) family(name, typ, help string) *family {
	f, ok := e.fams[name]
	if !ok {
		if e.fams == nil {
			e.fams = make(map[string]*family)
		}
		f = &family{name: name, typ: typ, help: help}
		e.fams[name] = f
		e.order = append(e.order, f)
	}
	return f
}

// Add appends one sample to the named counter or gauge family; labels
// are alternating key/value pairs. The first Add of a family fixes its
// type and help text.
func (e *Exposition) Add(name, typ, help string, labels []string, v float64) {
	f := e.family(name, typ, help)
	f.members = append(f.members, member{labels: labels, value: v})
}

// AddHistogram appends one labeled member to the named histogram family
// (e.g. per-region fsync latency): its cumulative _bucket samples carry
// the member labels plus le, and its _sum and _count the member labels
// alone.
func (e *Exposition) AddHistogram(name, help string, labels []string, snap HistogramSnapshot) {
	f := e.family(name, "histogram", help)
	f.members = append(f.members, member{labels: labels, hist: snap})
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

func writeSample(b *strings.Builder, name string, labels []string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(labels[i])
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[i+1]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// String renders the accumulated families.
func (e *Exposition) String() string {
	var b strings.Builder
	for _, f := range e.order {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, m := range f.members {
			if f.typ != "histogram" {
				writeSample(&b, f.name, m.labels, m.value)
				continue
			}
			h := m.hist
			cum := uint64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				writeSample(&b, f.name+"_bucket", append(append([]string(nil), m.labels...), "le", formatValue(bound)), float64(cum))
			}
			cum += h.Inf
			writeSample(&b, f.name+"_bucket", append(append([]string(nil), m.labels...), "le", "+Inf"), float64(cum))
			writeSample(&b, f.name+"_sum", m.labels, h.Sum)
			writeSample(&b, f.name+"_count", m.labels, float64(cum))
		}
	}
	return b.String()
}

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

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the program. Times are nanoseconds
// since the recorder started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span in the file, -1 for a root
	Epoch  int    `json:"epoch"`
	Replay bool   `json:"replay,omitempty"` // measured on a replayed copy of the work, outside the program's own call
}

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, so the untraced pass runs the same code with the
// recorder absent.
//
// Phase spans (epoch, submit_phase, market.run_auction, …) are opened and
// closed by the goroutine driving the workload and get their index at
// once, so leaves can name them as parent. Leaf spans (one per call into a
// layer) go to per-goroutine buffers and are numbered when the file is
// written.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	phases []span
	bufs   []*spanBuf

	// phase and epoch are the innermost open phase span and its epoch, for
	// leaves that cannot be told their cause (the journal's file calls and
	// HTTP handlers run on goroutines the driver does not own): they are
	// parented by time containment to whichever phase encloses them.
	phase atomic.Int64
	epoch atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.phase.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a phase span under parent and makes it the current phase.
func (r *recorder) begin(name string, parent, epoch int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.phases)
	r.phases = append(r.phases, span{Name: name, Start: r.now(), Parent: parent, Epoch: epoch})
	r.mu.Unlock()
	r.phase.Store(int64(id))
	r.epoch.Store(int64(epoch))
	return id
}

// end closes phase span id and makes its parent the current phase.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phases[id].End = r.now()
	parent := r.phases[id].Parent
	r.mu.Unlock()
	r.phase.Store(int64(parent))
}

// spanBuf collects the leaf spans of one caller.
type spanBuf struct {
	r     *recorder
	mu    sync.Mutex
	spans []span
}

// buffer returns a new leaf buffer; nil on a nil recorder.
func (r *recorder) buffer() *spanBuf {
	if r == nil {
		return nil
	}
	b := &spanBuf{r: r}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// openPhase, as a leaf's parent, stands for whichever phase is open when
// the leaf ends.
const openPhase = -2

// add records a finished leaf that started at start under the given
// parent phase.
func (b *spanBuf) add(name string, start time.Time, parent int, replay bool) {
	if b == nil {
		return
	}
	end := b.r.now()
	if parent == openPhase {
		parent = int(b.r.phase.Load())
	}
	s := span{Name: name, Start: int64(start.Sub(b.r.t0)), End: end, Parent: parent,
		Epoch: int(b.r.epoch.Load()), Replay: replay}
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// all returns every span, phases first so that parent indices hold.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.phases...)
	for _, b := range r.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// writeSpans stores the spans as one JSON file and returns its path.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Children that ran concurrently are
// summed and the sum capped at the parent's duration. Replay spans cover
// nothing: they time a copy of the work, outside the parent's own call.
func selfTimes(spans []span) []time.Duration {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && !s.Replay {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		d := s.End - s.Start
		out[i] = time.Duration(d - min(covered[i], d))
	}
	return out
}

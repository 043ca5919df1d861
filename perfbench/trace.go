package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public functions, recorded by a
// traced run from the benchmark's own code. Spans of one request share
// Req; Parent names the span whose work caused this one. A span may
// cover N calls made back to back, where timing each call alone would
// cost as much as the call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory; they are written out when the
// run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// open starts a span now.
func (t *tracer) open(name string, parent, req int64) *openSpan {
	return t.openAt(name, parent, req, time.Now())
}

// openAt starts a span at a time already taken.
func (t *tracer) openAt(name string, parent, req int64, start time.Time) *openSpan {
	return &openSpan{t: t, start: start, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, N: 1}}
}

// close ends the span now and records it.
func (o *openSpan) close() { o.closeAt(time.Now(), 1) }

// closeAt ends the span at end, covering n calls, and records it.
func (o *openSpan) closeAt(end time.Time, n int64) {
	o.s.Start = int64(o.start.Sub(o.t.t0))
	o.s.End = int64(end.Sub(o.t.t0))
	o.s.N = n
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// timed records fn as one span covering n calls.
func (t *tracer) timed(name string, parent int64, n int64, fn func() error) error {
	o := t.open(name, parent, 0)
	err := fn()
	o.closeAt(time.Now(), n)
	return err
}

// layerTotals is the aggregate of a span name: total and self time and
// the calls covered.
type layerTotals struct {
	total, self time.Duration
	calls       int64
}

// per returns the mean self time per call in the given unit.
func (l layerTotals) per(unit time.Duration) float64 {
	return ratio(float64(l.self)/float64(unit), float64(l.calls))
}

// totals aggregates the spans recorded since mark by name. A span's self
// time is its duration less its children's.
func (t *tracer) totals(mark int) map[string]layerTotals {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[mark:]...)
	t.mu.Unlock()
	children := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := map[string]layerTotals{}
	for _, s := range spans {
		l := out[s.Name]
		l.total += s.dur()
		l.self += s.dur() - children[s.ID]
		l.calls += s.N
		out[s.Name] = l
	}
	return out
}

// mark returns a position to aggregate from.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves every span as JSON lines under the checkout's build
// directory and returns the file's path.
func (t *tracer) write(root, workload string, seed uint64) (string, error) {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

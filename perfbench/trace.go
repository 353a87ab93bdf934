package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Req is the plan entry the
// call served (-1 for calls outside the plan) and Parent the span that
// caused it (0 for none); spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's origin.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished call and returns its span id.
func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// time runs f and records it as a span.
func (t *tracer) time(name string, req, parent int, f func() error) (int, error) {
	start := time.Now()
	err := f()
	return t.add(name, req, parent, start, time.Now()), err
}

// selfTimes returns each span's self time. A layer's child spans are
// replays of the calls it makes one layer down, made one after another
// rather than inside its own interval, so a span's self time is its
// duration minus the summed durations of its children.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byName groups span durations (or, with self, self times) by name, in
// microseconds.
func byName(spans []span, self map[int]time.Duration) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out[s.Name] = append(out[s.Name], us(d))
	}
	return out
}

// writeSpans writes the spans, ordered by start, as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent indexes the enclosing span in the same tracer (-1 for a root).
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
}

// rename relabels a span once its outcome is known; an empty name drops it.
func (t *tracer) rename(i int, name string) {
	if t == nil {
		return
	}
	t.spans[i].name = name
}

// timed runs f inside a span.
func (t *tracer) timed(name string, op, parent int, f func()) {
	i := t.begin(name, op, parent)
	f()
	t.end(i)
}

// selfTimes returns each span's self time: its duration minus the time its
// direct children cover (children of one span never overlap here).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// merge appends another tracer's spans, re-basing their times and parents.
func (t *tracer) merge(o *tracer) {
	shift := o.origin.Sub(t.origin)
	base := len(t.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		s.start += shift
		s.end += shift
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if s.name == "" {
			continue
		}
		if err := enc.Encode(struct {
			Name    string `json:"name"`
			Op      int    `json:"op"`
			Parent  int    `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.name, s.op, s.parent, int64(s.start), int64(s.end)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; Parent
// names the span that caused this one (0 = none). Standalone marks a
// child timed on its own, on the same inputs, after the parent returned:
// the layers expose no hooks, so the benchmark cannot time a call made
// inside another package's function any other way.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent,omitempty"`
	Job        int     `json:"job"`
	Name       string  `json:"name"`
	Start      float64 `json:"start_s"`
	End        float64 `json:"end_s"`
	Standalone bool    `json:"standalone,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code paths at no cost.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return sp.End - sp.Start
}

// standalone times fn as a child of parent that ran outside it.
func (t *tracer) standalone(name string, parent, job int, fn func()) float64 {
	id := t.begin(name, parent, job)
	t.mu.Lock()
	t.spans[id-1].Standalone = true
	t.mu.Unlock()
	fn()
	return t.end(id)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

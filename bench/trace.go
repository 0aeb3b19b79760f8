package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer, recorded from
// outside the program. Spans of one request, job, build or replayed column
// share Item.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Item   string `json:"item"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 200000

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced phases run.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its ID (0 when not kept).
func (t *tracer) record(name, item string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Item: item,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// writeFile dumps the spans as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

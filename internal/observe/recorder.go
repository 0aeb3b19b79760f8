package observe

import (
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder keeps the recent interesting traces of one process
// in a fixed-size ring so an operator (or the fleet e2e) can ask "what
// did that slow request actually do" after the fact, without shipping
// spans anywhere.
//
// Admission is tail-based — decided when a trace completes, not when it
// starts: error traces are always kept, traces slower than the current
// slowest-N admission threshold are kept, and of the remainder every
// K-th completed trace is kept as a background sample. Everything else
// is counted and dropped.

// RecorderConfig configures a FlightRecorder's background sample.
type RecorderConfig struct {
	// SampleEvery keeps one of every K non-error, non-slow traces
	// (default 16). Set 1 to keep everything (tests), <0 to disable the
	// background sample.
	SampleEvery int
}

const (
	// recorderCapacity is the number of completed traces retained.
	recorderCapacity = 256
	// maxSpansPerTrace caps spans kept per trace; further spans are
	// counted in TraceRecord.DroppedSpans.
	maxSpansPerTrace = 512
	// slowN is the size of the slowest-N admission set. A completing trace
	// strictly slower than the fastest member is "slow" (strict, so a
	// tight cluster of identical latencies does not admit everything). The
	// set resets every slowWindow completions so it adapts when the
	// latency regime shifts.
	slowN      = 32
	slowWindow = 4096
)

// SpanRecord is one completed span inside a recorded trace.
type SpanRecord struct {
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurationNanos int64             `json:"duration_nanos"`
	Error         string            `json:"error,omitempty"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// TraceRecord is one completed, admitted trace. Spans are in completion
// order; the local root is last (its ID repeats in RootSpanID).
// RemoteParent is the span ID of the upstream process's span when the
// trace was joined via a traceparent header, letting cross-process
// timelines stitch.
type TraceRecord struct {
	TraceID       string       `json:"trace_id"`
	Root          string       `json:"root"`
	RootSpanID    string       `json:"root_span_id"`
	RemoteParent  string       `json:"remote_parent,omitempty"`
	StartUnixNano int64        `json:"start_unix_nano"`
	DurationNanos int64        `json:"duration_nanos"`
	Error         bool         `json:"error"`
	Reason        string       `json:"reason"` // "error", "slow" or "sampled"
	DroppedSpans  int          `json:"dropped_spans,omitempty"`
	Spans         []SpanRecord `json:"spans"`
}

// FlightRecorder is the per-process ring of recently completed traces.
// Span recording takes one small per-trace mutex; the recorder-wide lock
// is touched only when a trace completes or a snapshot is read.
type FlightRecorder struct {
	cfg RecorderConfig

	spansTotal   atomic.Uint64 // spans recorded into trace buffers
	tracesTotal  atomic.Uint64 // traces completed (admitted or not)
	retained     atomic.Uint64 // traces admitted to the ring
	droppedTotal atomic.Uint64 // traces completed but not admitted

	mu        sync.Mutex
	ring      []TraceRecord
	next      int // ring write cursor
	count     int // filled entries, <= cap
	completed uint64
	slow      []int64 // min-heap of the slowest-N durations this window
}

// NewFlightRecorder builds a recorder with cfg (zero values defaulted).
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 16
	}
	return &FlightRecorder{cfg: cfg, ring: make([]TraceRecord, recorderCapacity)}
}

// Register exposes the recorder's counters on reg as the
// autodetect_trace_* families.
func (r *FlightRecorder) Register(reg *Registry) {
	reg.CounterFunc("autodetect_trace_spans_total",
		"Spans recorded into in-flight trace buffers.", r.spansTotal.Load)
	reg.CounterFunc("autodetect_traces_completed_total",
		"Traces completed in this process (admitted or not).", r.tracesTotal.Load)
	reg.CounterFunc("autodetect_traces_retained_total",
		"Completed traces admitted to the flight-recorder ring.", r.retained.Load)
	reg.CounterFunc("autodetect_traces_dropped_total",
		"Completed traces not admitted by tail sampling.", r.droppedTotal.Load)
}

// traceBuf accumulates the spans of one in-flight local trace. It is
// created by the local root span and shared down the context tree.
type traceBuf struct {
	traceID TraceID

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	err     bool
}

func (b *traceBuf) add(s SpanRecord, isErr bool) {
	b.mu.Lock()
	if isErr {
		b.err = true
	}
	if len(b.spans) >= maxSpansPerTrace {
		b.dropped++
	} else {
		b.spans = append(b.spans, s)
	}
	b.mu.Unlock()
}

// finalize runs when a local root span ends: decide admission, and on
// admission copy the trace into the ring.
func (r *FlightRecorder) finalize(b *traceBuf, root SpanRecord, remoteParent string) {
	b.mu.Lock()
	spans := append(b.spans, root)
	b.spans = nil
	dropped := b.dropped
	isErr := b.err || root.Error != ""
	b.mu.Unlock()

	r.tracesTotal.Add(1)
	dur := root.DurationNanos

	r.mu.Lock()
	r.completed++
	if r.completed%slowWindow == 0 {
		r.slow = r.slow[:0]
	}
	reason := ""
	switch {
	case isErr:
		reason = "error"
	case len(r.slow) < slowN || dur > r.slow[0]:
		reason = "slow"
	case r.cfg.SampleEvery > 0 && r.completed%uint64(r.cfg.SampleEvery) == 0:
		reason = "sampled"
	}
	r.noteSlow(dur)
	if reason == "" {
		r.mu.Unlock()
		r.droppedTotal.Add(1)
		return
	}
	r.ring[r.next] = TraceRecord{
		TraceID:       b.traceID.String(),
		Root:          root.Name,
		RootSpanID:    root.SpanID,
		RemoteParent:  remoteParent,
		StartUnixNano: root.StartUnixNano,
		DurationNanos: dur,
		Error:         isErr,
		Reason:        reason,
		DroppedSpans:  dropped,
		Spans:         spans,
	}
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	r.mu.Unlock()
	r.retained.Add(1)
}

// noteSlow feeds one completed duration into the slowest-N min-heap.
// Caller holds r.mu.
func (r *FlightRecorder) noteSlow(d int64) {
	if len(r.slow) < slowN {
		r.slow = append(r.slow, d)
		// sift up
		for i := len(r.slow) - 1; i > 0; {
			p := (i - 1) / 2
			if r.slow[p] <= r.slow[i] {
				break
			}
			r.slow[p], r.slow[i] = r.slow[i], r.slow[p]
			i = p
		}
		return
	}
	if d <= r.slow[0] {
		return
	}
	r.slow[0] = d
	// sift down
	for i := 0; ; {
		l, rr := 2*i+1, 2*i+2
		m := i
		if l < len(r.slow) && r.slow[l] < r.slow[m] {
			m = l
		}
		if rr < len(r.slow) && r.slow[rr] < r.slow[m] {
			m = rr
		}
		if m == i {
			return
		}
		r.slow[i], r.slow[m] = r.slow[m], r.slow[i]
		i = m
	}
}

// TraceFilter selects traces for Snapshot.
type TraceFilter struct {
	// MinDuration keeps only traces at least this slow.
	MinDuration time.Duration
	// ErrorOnly keeps only error traces.
	ErrorOnly bool
	// Limit caps the number returned (0 = all retained).
	Limit int
}

// Snapshot returns copies of retained traces matching f, newest first.
func (r *FlightRecorder) Snapshot(f TraceFilter) []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, r.count)
	for i := 0; i < r.count; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		t := r.ring[idx]
		if f.ErrorOnly && !t.Error {
			continue
		}
		if t.DurationNanos < f.MinDuration.Nanoseconds() {
			continue
		}
		out = append(out, t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Trace returns the retained trace with the given hex ID. When the same
// trace ID was recorded by several local roots (one trace spanning
// several inbound requests), the newest record wins.
func (r *FlightRecorder) Trace(id string) (TraceRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.count; i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		if r.ring[idx].TraceID == id {
			return r.ring[idx], true
		}
	}
	return TraceRecord{}, false
}

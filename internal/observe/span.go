package observe

import (
	"context"
	"sync"
	"time"
)

// SpanMetric is the histogram family Span records into, labeled by the
// span's slash-joined path.
const SpanMetric = "autodetect_span_seconds"

// Span starts timing a named stage and returns a context for nested spans
// plus an end function. Ending the span records its wall-clock duration
// into the SpanMetric histogram of the context's registry (see
// ContextWithRegistry; Default otherwise; no sample when the bound
// registry is nil), labeled with the span path:
// nested spans join their names with '/', so a column check inside a
// table request records as "check_table/check_column".
//
// When the context additionally carries a Tracer (ContextWithTracer —
// planted by the resilience middleware or a job executor), the span also
// records its identity, parent/child structure, start time, duration,
// attrs (SetSpanAttr) and error state (SetSpanError) into the tracer's
// flight recorder. The first span under a tracer becomes the local root:
// it either starts a fresh trace or joins the remote trace planted by
// ContextWithRemoteParent, and its end finalizes the trace for tail
// sampling. Without a tracer the behavior is exactly the pre-tracing
// one: two time.Now calls and one histogram lookup.
//
// End functions are idempotent-hostile by design: call each exactly once.
func Span(ctx context.Context, name string) (context.Context, func()) {
	path := name
	if parent, ok := ctx.Value(spanPathKey).(string); ok && parent != "" {
		path = parent + "/" + name
	}
	reg := RegistryFrom(ctx)
	ctx, st := startSpan(ctx, name)
	start := time.Now()
	ctx = context.WithValue(ctx, spanPathKey, path)
	return ctx, func() {
		d := time.Since(start)
		if reg != nil {
			reg.HistogramVec(SpanMetric, "Duration of instrumented stages by span path.",
				DefBuckets, "span").With(path).Observe(d.Seconds())
		}
		if st != nil {
			st.end(d)
		}
	}
}

// RecorderSpan starts a span recorded only into the flight recorder — no
// SpanMetric histogram sample and no span-path contribution. Transport
// middleware uses it for the per-request server span, whose latency is
// already measured by autodetect_http_request_seconds; double-counting
// it under SpanMetric would skew existing dashboards. Without a tracer
// in ctx it is a no-op returning ctx unchanged.
func RecorderSpan(ctx context.Context, name string) (context.Context, func()) {
	ctx, st := startSpan(ctx, name)
	if st == nil {
		return ctx, func() {}
	}
	return ctx, func() { st.end(time.Since(st.start)) }
}

// startSpan creates the recorder-side state for a new span when a tracer
// is bound; returns (ctx, nil) otherwise.
func startSpan(ctx context.Context, name string) (context.Context, *spanState) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	st := &spanState{tr: tr, name: name, start: time.Now()}
	st.startUnix = st.start.UnixNano()
	if parent, ok := ctx.Value(activeSpanKey).(*spanState); ok && parent != nil {
		st.buf = parent.buf
		st.sc = SpanContext{TraceID: parent.sc.TraceID, SpanID: tr.ids.SpanID()}
		st.parent = parent.sc.SpanID
	} else {
		st.root = true
		var tid TraceID
		if remote, ok := ctx.Value(remoteParentKey).(SpanContext); ok && remote.Valid() {
			tid = remote.TraceID
			st.parent = remote.SpanID
			st.remote = true
		} else {
			tid = tr.ids.TraceID()
		}
		st.sc = SpanContext{TraceID: tid, SpanID: tr.ids.SpanID()}
		st.buf = &traceBuf{traceID: tid}
	}
	return context.WithValue(ctx, activeSpanKey, st), st
}

// spanState is the recorder-side identity of one live span.
type spanState struct {
	tr        *Tracer
	buf       *traceBuf
	sc        SpanContext
	parent    SpanID
	name      string
	start     time.Time
	startUnix int64
	root      bool
	remote    bool // parent is in another process

	mu    sync.Mutex
	err   string
	attrs map[string]string
}

func (st *spanState) end(d time.Duration) {
	st.mu.Lock()
	rec := SpanRecord{
		SpanID:        st.sc.SpanID.String(),
		Name:          st.name,
		StartUnixNano: st.startUnix,
		DurationNanos: d.Nanoseconds(),
		Error:         st.err,
		Attrs:         st.attrs,
	}
	st.attrs = nil
	st.mu.Unlock()
	if !st.parent.IsZero() {
		rec.ParentID = st.parent.String()
	}
	r := st.tr.rec
	r.spansTotal.Add(1)
	if st.root {
		// The root completes the trace: its own record rides along into
		// finalize rather than through the shared buffer.
		remote := ""
		if st.remote {
			remote = st.parent.String()
		}
		r.finalize(st.buf, rec, remote)
		return
	}
	st.buf.add(rec, rec.Error != "")
}

// SetSpanError marks the innermost active span (and therefore its trace)
// as failed; error traces are always retained by the flight recorder.
// No-op without an active span.
func SetSpanError(ctx context.Context, msg string) {
	st, _ := ctx.Value(activeSpanKey).(*spanState)
	if st == nil || msg == "" {
		return
	}
	st.mu.Lock()
	st.err = msg
	st.mu.Unlock()
}

// SetSpanAttr attaches a key/value pair to the innermost active span's
// flight-recorder record. Values must be bounded (never raw payload
// data); they surface in /debug/traces, not in metrics labels. No-op
// without an active span.
func SetSpanAttr(ctx context.Context, key, value string) {
	st, _ := ctx.Value(activeSpanKey).(*spanState)
	if st == nil {
		return
	}
	st.mu.Lock()
	if st.attrs == nil {
		st.attrs = make(map[string]string, 4)
	}
	st.attrs[key] = value
	st.mu.Unlock()
}

package resilience

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/observe"
)

func newTracingTracer() *observe.Tracer {
	return observe.NewTracer(
		observe.NewFlightRecorder(observe.RecorderConfig{SampleEvery: 1}),
		observe.NewIDSource(1))
}

func TestTracingCreatesServerSpanAndEchoesTraceID(t *testing.T) {
	tr := newTracingTracer()
	h := Chain(RequestID(), Tracing(tr, nil))(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if observe.TraceIDFrom(r.Context()) == "" {
			t.Error("handler context has no trace ID")
		}
		io.WriteString(w, "ok")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check-column", nil))

	tid := rec.Header().Get(HeaderTraceID)
	if len(tid) != 32 {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", tid)
	}
	tc, ok := tr.Recorder().Trace(tid)
	if !ok {
		t.Fatalf("trace %s not in the recorder", tid)
	}
	if tc.Root != "POST /v1/check-column" {
		t.Fatalf("server span name %q", tc.Root)
	}
	root := tc.Spans[len(tc.Spans)-1]
	if root.Attrs["status"] != "200" || root.Attrs["request_id"] == "" {
		t.Fatalf("server span attrs %v, want status + request_id", root.Attrs)
	}
}

func TestTracingJoinsInboundTraceparent(t *testing.T) {
	tr := newTracingTracer()
	upstream := observe.SpanContext{
		TraceID: observe.NewIDSource(9).TraceID(),
		SpanID:  observe.NewIDSource(9).SpanID(),
	}
	h := Tracing(tr, nil)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("GET", "/v1/health", nil)
	req.Header.Set(observe.HeaderTraceparent, upstream.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if got := rec.Header().Get(HeaderTraceID); got != upstream.TraceID.String() {
		t.Fatalf("trace ID %s, want upstream %s", got, upstream.TraceID)
	}
	tc, ok := tr.Recorder().Trace(upstream.TraceID.String())
	if !ok {
		t.Fatal("joined trace not recorded")
	}
	if tc.RemoteParent != upstream.SpanID.String() {
		t.Fatalf("remote parent %q, want %s", tc.RemoteParent, upstream.SpanID)
	}
}

func TestTracingMarks5xxAsErrorTrace(t *testing.T) {
	tr := newTracingTracer()
	h := Tracing(tr, nil)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	tc, ok := tr.Recorder().Trace(rec.Header().Get(HeaderTraceID))
	if !ok || !tc.Error || tc.Reason != "error" {
		t.Fatalf("5xx trace: ok=%t %+v", ok, tc)
	}
}

func TestTracingNilTracerIsPassthrough(t *testing.T) {
	h := Tracing(nil, nil)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Header().Get(HeaderTraceID) != "" {
		t.Fatal("nil tracer still set X-Trace-Id")
	}
}

// Satellite regression: hostile inbound correlation headers must never
// propagate. X-Request-Id values outside 1–128 bytes of [A-Za-z0-9._:-]
// are replaced; malformed traceparent values start a fresh trace instead
// of joining garbage.
func TestHostileCorrelationHeadersRejected(t *testing.T) {
	tr := newTracingTracer()
	var seenID string
	h := Chain(RequestID(), Tracing(tr, nil))(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = observe.RequestIDFrom(r.Context())
	}))

	hostileIDs := []string{
		strings.Repeat("a", 129), // oversized
		"id with spaces",         // whitespace
		"id\"with\"quotes",       // quote injection into logfmt
		"id\nwith=newline",       // log line injection
		"id\x00nul",              // control bytes
		"café",                   // non-ASCII
	}
	for _, hostile := range hostileIDs {
		req := httptest.NewRequest("GET", "/v1/health", nil)
		req.Header.Set(HeaderRequestID, hostile)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if seenID == hostile || rec.Header().Get(HeaderRequestID) == hostile {
			t.Errorf("hostile request ID %q propagated", hostile)
		}
		if len(seenID) != 16 {
			t.Errorf("replacement ID %q, want 16 hex chars", seenID)
		}
	}

	// A well-formed inbound ID still passes through untouched.
	req := httptest.NewRequest("GET", "/v1/health", nil)
	req.Header.Set(HeaderRequestID, "client-id_1.2:3")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seenID != "client-id_1.2:3" {
		t.Fatalf("valid request ID rewritten to %q", seenID)
	}

	hostileTraceparents := []string{
		strings.Repeat("0", 4096), // oversized
		"00-" + strings.Repeat("A", 32) + "-" + strings.Repeat("b", 16) + "-01", // uppercase
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("b", 16) + "-01", // zero trace
		"evil\nheader",
	}
	for _, hostile := range hostileTraceparents {
		req := httptest.NewRequest("GET", "/v1/health", nil)
		req.Header.Set(observe.HeaderTraceparent, hostile)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		tid := rec.Header().Get(HeaderTraceID)
		if len(tid) != 32 || strings.Contains(hostile, tid) {
			t.Errorf("hostile traceparent %.40q: trace ID %q should be fresh", hostile, tid)
		}
		if tc, ok := tr.Recorder().Trace(tid); !ok || tc.RemoteParent != "" {
			t.Errorf("hostile traceparent %.40q joined a remote parent: %+v", hostile, tc)
		}
	}
}

func TestMetricsExemplarLinksLatencyToTrace(t *testing.T) {
	tr := newTracingTracer()
	reg := observe.NewRegistry()
	m := NewHTTPMetrics(reg)
	h := Chain(RequestID(), Tracing(tr, nil), Metrics(m))(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
	tid := rec.Header().Get(HeaderTraceID)

	var om strings.Builder
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(om.String(), `# {trace_id="`+tid+`"}`) {
		t.Fatalf("latency histogram has no exemplar for trace %s:\n%s", tid, om.String())
	}
}

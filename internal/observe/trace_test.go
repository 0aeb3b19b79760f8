package observe

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	ids := NewIDSource(42)
	sc := SpanContext{TraceID: ids.TraceID(), SpanID: ids.SpanID()}
	hdr := sc.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55 (%q)", len(hdr), hdr)
	}
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent framing wrong: %q", hdr)
	}
	back, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected own output %q", hdr)
	}
	if back != sc {
		t.Fatalf("round trip changed the context: %+v != %+v", back, sc)
	}
}

func TestParseTraceparentRejectsHostileValues(t *testing.T) {
	valid := SpanContext{TraceID: NewIDSource(1).TraceID(), SpanID: NewIDSource(2).SpanID()}.Traceparent()
	bad := []string{
		"",
		"00",
		valid + "x",            // oversized
		valid[:54],             // truncated
		strings.ToUpper(valid), // uppercase hex
		"01" + valid[2:],       // future version
		strings.Replace(valid, "-", "_", 1),
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:],           // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + "-01",                 // zero span ID
		"00-" + strings.Repeat("g", 32) + "-" + valid[36:52] + "-01", // non-hex
		strings.Repeat("A", 55),
		valid[:53] + "zz", // non-hex flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("control: valid value %q rejected", valid)
	}
}

func TestIDSourceDeterministicAndNonZero(t *testing.T) {
	a, b := NewIDSource(7), NewIDSource(7)
	for i := 0; i < 100; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("iteration %d: same seed produced %s and %s", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatalf("iteration %d: zero trace ID", i)
		}
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb || sa.IsZero() {
			t.Fatalf("iteration %d: span IDs %s / %s", i, sa, sb)
		}
	}
	if NewIDSource(8).TraceID() == NewIDSource(9).TraceID() {
		t.Fatal("different seeds produced the same first trace ID")
	}
}

// newTestTracer returns a tracer whose recorder admits everything, for
// tests that assert on exact recorded structure.
func newTestTracer(seed uint64) *Tracer {
	return NewTracer(NewFlightRecorder(RecorderConfig{SampleEvery: 1}), NewIDSource(seed))
}

func TestSpanRecordsTreeIntoRecorder(t *testing.T) {
	tr := newTestTracer(1)
	ctx := ContextWithTracer(context.Background(), tr)

	rctx, endRoot := Span(ctx, "check_table")
	c1, end1 := Span(rctx, "check_column")
	SetSpanAttr(c1, "column", "date")
	end1()
	c2, end2 := Span(rctx, "check_column")
	SetSpanError(c2, "boom")
	end2()
	endRoot()

	traces := tr.Recorder().Snapshot(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	tc := traces[0]
	if tc.Root != "check_table" || len(tc.Spans) != 3 {
		t.Fatalf("trace root=%q spans=%d, want check_table/3", tc.Root, len(tc.Spans))
	}
	if !tc.Error || tc.Reason != "error" {
		t.Fatalf("child error should mark the trace: error=%t reason=%q", tc.Error, tc.Reason)
	}
	root := tc.Spans[len(tc.Spans)-1]
	if root.SpanID != tc.RootSpanID || root.ParentID != "" {
		t.Fatalf("last span should be the parentless root: %+v (root_span_id %s)", root, tc.RootSpanID)
	}
	for _, s := range tc.Spans[:2] {
		if s.Name != "check_column" || s.ParentID != root.SpanID {
			t.Fatalf("child span %+v should hang off root %s", s, root.SpanID)
		}
	}
	if tc.Spans[0].Attrs["column"] != "date" {
		t.Fatalf("attr lost: %+v", tc.Spans[0].Attrs)
	}
	if tc.Spans[1].Error != "boom" {
		t.Fatalf("span error lost: %+v", tc.Spans[1])
	}
}

func TestSpanJoinsRemoteParent(t *testing.T) {
	tr := newTestTracer(3)
	remote := SpanContext{TraceID: NewIDSource(99).TraceID(), SpanID: NewIDSource(99).SpanID()}
	ctx := ContextWithRemoteParent(ContextWithTracer(context.Background(), tr), remote)

	sctx, end := RecorderSpan(ctx, "count_partition")
	if got := TraceIDFrom(sctx); got != remote.TraceID.String() {
		t.Fatalf("local root trace ID = %s, want remote %s", got, remote.TraceID)
	}
	end()

	traces := tr.Recorder().Snapshot(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	tc := traces[0]
	if tc.TraceID != remote.TraceID.String() {
		t.Fatalf("trace ID %s, want %s", tc.TraceID, remote.TraceID)
	}
	if tc.RemoteParent != remote.SpanID.String() {
		t.Fatalf("remote parent %q, want %s", tc.RemoteParent, remote.SpanID)
	}
	if tc.Spans[len(tc.Spans)-1].ParentID != remote.SpanID.String() {
		t.Fatalf("local root should parent to the remote span: %+v", tc.Spans)
	}
}

func TestSpanWithoutTracerIsMetricOnly(t *testing.T) {
	reg := NewRegistry()
	ctx := ContextWithRegistry(context.Background(), reg)
	sctx, end := Span(ctx, "check_column")
	if TraceIDFrom(sctx) != "" {
		t.Fatal("no tracer bound, but a trace ID appeared")
	}
	end()
	_, endR := RecorderSpan(ctx, "noop")
	endR() // must not panic without a tracer
}

func TestInjectAndSpanContextFrom(t *testing.T) {
	tr := newTestTracer(5)
	ctx := ContextWithTracer(context.Background(), tr)
	h := make(headerMap)
	Inject(ctx, h) // no active span: nothing to inject
	if len(h) != 0 {
		t.Fatalf("inject without a span wrote %v", h)
	}
	sctx, end := RecorderSpan(ctx, "client_call")
	defer end()
	Inject(sctx, h)
	sc, ok := ParseTraceparent(h[HeaderTraceparent])
	if !ok {
		t.Fatalf("injected header %q does not parse", h[HeaderTraceparent])
	}
	if sc != SpanContextFrom(sctx) {
		t.Fatalf("injected %+v, active span is %+v", sc, SpanContextFrom(sctx))
	}
}

type headerMap map[string]string

func (h headerMap) Set(k, v string) { h[k] = v }

// testTraceID is the synthetic trace ID of finalizeTrace's id.
func testTraceID(id int) TraceID {
	var tid TraceID
	tid[0], tid[1] = byte(id), byte(id>>8)
	tid[15] = 1
	return tid
}

// finalizeTrace pushes one synthetic completed trace through the
// recorder's admission path with a controlled duration.
func finalizeTrace(r *FlightRecorder, id int, dur time.Duration, isErr bool) {
	root := SpanRecord{SpanID: "feedfeedfeedfeed", Name: "root", DurationNanos: dur.Nanoseconds()}
	if isErr {
		root.Error = "boom"
	}
	r.finalize(&traceBuf{traceID: testTraceID(id)}, root, "")
}

// fillSlowSet completes slowN one-second traces: each is "slow" while the
// slowest-N set fills, and no later trace at or under a second beats its
// threshold.
func fillSlowSet(r *FlightRecorder) {
	for i := 0; i < slowN; i++ {
		finalizeTrace(r, 1000+i, time.Second, false)
	}
}

func TestRecorderTailSampling(t *testing.T) {
	// The first slowN traces fill the slow set; later ones never beat its
	// threshold (the one-second trace ties, and ties are not slow), errors
	// are always kept, and every 5th completion of the rest is the
	// background sample.
	r := NewFlightRecorder(RecorderConfig{SampleEvery: 5})
	fillSlowSet(r)                          // completions #1..#32: slow
	finalizeTrace(r, 0, time.Second, false) // #33: ties the threshold
	for i := 1; i <= 20; i++ {
		finalizeTrace(r, i, time.Millisecond, i == 6) // #34..#53; #39 is an error
	}
	var reasons []string
	for _, tc := range r.Snapshot(TraceFilter{}) {
		reasons = append(reasons, tc.Reason)
	}
	// Completions 35, 40, 45, 50 are sampled; #39 error. Newest first.
	want := []string{"sampled", "sampled", "sampled", "error", "sampled"}
	for i := 0; i < slowN; i++ {
		want = append(want, "slow")
	}
	if len(reasons) != len(want) {
		t.Fatalf("retained %d traces (%v), want %d", len(reasons), reasons, len(want))
	}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("reasons = %v, want %v", reasons, want)
		}
	}
	if got := r.droppedTotal.Load(); got != 53-37 {
		t.Fatalf("dropped = %d, want 16", got)
	}
}

func TestRecorderDisabledSamplingKeepsOnlyErrorsAndSlow(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{SampleEvery: -1})
	fillSlowSet(r)
	for i := 1; i <= 10; i++ {
		finalizeTrace(r, i, time.Millisecond, false)
	}
	finalizeTrace(r, 11, time.Millisecond, true)
	got := r.Snapshot(TraceFilter{})
	if len(got) != slowN+1 || got[0].Reason != "error" {
		t.Fatalf("retained %d traces, want %d (error, then the slow set)", len(got), slowN+1)
	}
	for _, tc := range got[1:] {
		if tc.Reason != "slow" {
			t.Fatalf("retained a %q trace, want only error and slow", tc.Reason)
		}
	}
}

func TestRecorderRingEvictsOldest(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{SampleEvery: 1})
	for i := 1; i <= recorderCapacity+1; i++ {
		finalizeTrace(r, i, time.Duration(i)*time.Millisecond, false)
	}
	got := r.Snapshot(TraceFilter{})
	if len(got) != recorderCapacity {
		t.Fatalf("ring holds %d, want %d", len(got), recorderCapacity)
	}
	if _, ok := r.Trace(testTraceID(1).String()); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	for _, id := range []int{2, recorderCapacity + 1} {
		if _, ok := r.Trace(testTraceID(id).String()); !ok {
			t.Fatalf("trace %d missing", id)
		}
	}
}

func TestRecorderSnapshotFilters(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{SampleEvery: 1})
	finalizeTrace(r, 1, time.Millisecond, false)
	finalizeTrace(r, 2, 100*time.Millisecond, false)
	finalizeTrace(r, 3, time.Millisecond, true)
	if got := r.Snapshot(TraceFilter{ErrorOnly: true}); len(got) != 1 || !got[0].Error {
		t.Fatalf("ErrorOnly: %v", got)
	}
	if got := r.Snapshot(TraceFilter{MinDuration: 50 * time.Millisecond}); len(got) != 1 {
		t.Fatalf("MinDuration: %v", got)
	}
	if got := r.Snapshot(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Fatalf("Limit: %v", got)
	}
}

func TestRecorderCapsSpansPerTrace(t *testing.T) {
	tr := NewTracer(NewFlightRecorder(RecorderConfig{SampleEvery: 1}), NewIDSource(1))
	ctx := ContextWithTracer(context.Background(), tr)
	rctx, endRoot := RecorderSpan(ctx, "root")
	for i := 0; i < maxSpansPerTrace+1; i++ {
		_, end := RecorderSpan(rctx, "child")
		end()
	}
	endRoot()
	traces := tr.Recorder().Snapshot(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces", len(traces))
	}
	// maxSpansPerTrace children kept + the root record itself rides along.
	if len(traces[0].Spans) != maxSpansPerTrace+1 || traces[0].DroppedSpans != 1 {
		t.Fatalf("spans=%d dropped=%d, want %d/1", len(traces[0].Spans), traces[0].DroppedSpans, maxSpansPerTrace+1)
	}
}

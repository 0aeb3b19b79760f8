package observe

import (
	"context"
	"testing"
)

// BenchmarkRecorderSpan measures the cost of one completed child span
// under a bound tracer: allocate state, record, append into the shared
// trace buffer. This is the per-span tax every traced request pays.
func BenchmarkRecorderSpan(b *testing.B) {
	tr := NewTracer(NewFlightRecorder(RecorderConfig{SampleEvery: -1}), NewIDSource(1))
	ctx := ContextWithTracer(context.Background(), tr)
	rctx, endRoot := RecorderSpan(ctx, "bench_root")
	defer endRoot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, end := RecorderSpan(rctx, "child")
		end()
	}
}

// BenchmarkRecorderTraceFinalize measures a whole small trace: root +
// three children, finalized through tail-sampling admission.
func BenchmarkRecorderTraceFinalize(b *testing.B) {
	tr := NewTracer(NewFlightRecorder(RecorderConfig{SampleEvery: -1}), NewIDSource(1))
	ctx := ContextWithTracer(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rctx, endRoot := RecorderSpan(ctx, "root")
		for j := 0; j < 3; j++ {
			_, end := RecorderSpan(rctx, "child")
			end()
		}
		endRoot()
	}
}

// BenchmarkTracingOverhead enforces the recorder's budget: under a
// microsecond per completed span (start + record + buffer append,
// amortizing finalize), so tracing every request is affordable. Each
// iteration is one root span with four children under the default
// recorder config. The budget is an amortized figure, so it is checked
// only once a run spans at least budgetTraces traces; the short
// calibration runs measure warm-up, not overhead. CI runs it as
// `go test -run '^$' -bench BenchmarkTracingOverhead -benchtime 20000x`.
func BenchmarkTracingOverhead(b *testing.B) {
	const (
		children     = 4
		budgetTraces = 20000
	)
	rec := NewFlightRecorder(RecorderConfig{})
	tr := NewTracer(rec, NewIDSource(1))
	ctx := ContextWithTracer(context.Background(), tr)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rctx, endRoot := RecorderSpan(ctx, "root")
		for j := 0; j < children; j++ {
			_, end := RecorderSpan(rctx, "child")
			end()
		}
		endRoot()
	}
	b.StopTimer()

	spans := b.N * (children + 1)
	nsPerSpan := float64(b.Elapsed().Nanoseconds()) / float64(spans)
	b.ReportMetric(nsPerSpan, "ns/span")
	if got := rec.tracesTotal.Load(); got != uint64(b.N) {
		b.Fatalf("completed %d traces, want %d", got, b.N)
	}
	if b.N >= budgetTraces && nsPerSpan >= 1000 {
		b.Fatalf("recorder overhead %.1f ns/span, budget < 1000 ns/span", nsPerSpan)
	}
}

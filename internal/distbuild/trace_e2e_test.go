package distbuild

// Fleet tracing end-to-end: one distributed build produces ONE trace ID
// observable on every process it touched. The coordinator opens the build
// root span; a worker joins it through the lease's traceparent; the
// publish call carries it into the registry server; the registry persists
// it with the version; and a serving replica's hot-swap span descends
// from the coordinator's publish span two processes away. Each "process"
// has its own Tracer + FlightRecorder, and the trace is read back over
// HTTP via the /debug/traces surface on more than one of them.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/retry"
)

// keepAllTracer is one simulated process's tracing identity: every
// completed trace is retained so assertions never race tail sampling.
func keepAllTracer(seed uint64) *observe.Tracer {
	return observe.NewTracer(
		observe.NewFlightRecorder(observe.RecorderConfig{SampleEvery: 1}),
		observe.NewIDSource(seed))
}

// findTrace returns the newest retained record matching pred, or fails.
func findTrace(t *testing.T, rec *observe.FlightRecorder, what string, pred func(observe.TraceRecord) bool) observe.TraceRecord {
	t.Helper()
	for _, tr := range rec.Snapshot(observe.TraceFilter{}) {
		if pred(tr) {
			return tr
		}
	}
	t.Fatalf("no retained trace matching %q", what)
	return observe.TraceRecord{}
}

// spanNamed returns the first span with the given name in a record.
func spanNamed(t *testing.T, tr observe.TraceRecord, name string) observe.SpanRecord {
	t.Helper()
	for _, s := range tr.Spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("trace %s has no %q span: %+v", tr.TraceID, name, tr.Spans)
	return observe.SpanRecord{}
}

func TestFleetTraceCausality(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	coordTracer := keepAllTracer(11)
	workerTracer := keepAllTracer(22)
	regTracer := keepAllTracer(33)
	replicaTracer := keepAllTracer(44)

	// --- Coordinator: its construction opens the build's root span. ---
	dir, _ := testCorpusDir(t, 300, 40, 23)
	opts := testOptions(100)
	coord := newTestCoordinator(t, dir, t.TempDir(), CoordinatorConfig{
		Partitions: 2, Options: opts, Tracer: coordTracer,
	})
	csrv := httptest.NewServer(coord.Handler())
	defer csrv.Close()

	// --- One worker drains the partitions, joining the build trace. ---
	if _, err := RunWorker(ctx, WorkerConfig{
		Coordinator: csrv.URL,
		Name:        "alpha",
		Dir:         dir,
		Workers:     2,
		Retry:       testRetry(),
		Tracer:      workerTracer,
	}); err != nil {
		t.Fatal(err)
	}
	det, _, err := coord.BuildModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	model := saveModel(t, det)
	part, err := pipeline.NewDirPartitioner(dir, pipeline.DirConfig{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	fp := pipeline.BuildFingerprint(part.Fingerprint(), opts)

	// --- Registry server behind the production middleware chain. ---
	store, err := registry.Open(t.TempDir(), registry.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	handler := resilience.Chain(
		resilience.RequestID(),
		resilience.Tracing(regTracer, registry.RouteLabel),
	)(registry.NewServer(store).Handler())
	rsrv := httptest.NewServer(handler)
	defer rsrv.Close()

	// --- Publish under a publish_model span, as the coordinator does. ---
	pubOpts := registry.PublishOptions{
		Client: rsrv.Client(),
		Retry:  retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
	pubCtx, endPublish := observe.RecorderSpan(coord.TraceContext(), "publish_model")
	res, err := registry.PublishModel(pubCtx, rsrv.URL, model, fp, "distbuild", pubOpts)
	endPublish()
	if err != nil || res.Version != 1 {
		t.Fatalf("publish: %+v err=%v", res, err)
	}
	coord.EndTrace()

	// --- A serving replica hot-swaps to the published version. ---
	var mu sync.Mutex
	applied := 0
	puller, err := registry.NewPuller(registry.PullerConfig{
		URL:    rsrv.URL,
		Poll:   15 * time.Millisecond,
		HTTP:   rsrv.Client(),
		Retry:  retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Tracer: replicaTracer,
		Apply: func(info registry.VersionInfo, raw []byte) error {
			mu.Lock()
			applied = info.Version
			mu.Unlock()
			return nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, changed, err := puller.PullNow(ctx)
	if err != nil || !changed || info.Version != 1 {
		t.Fatalf("pull: info=%+v changed=%t err=%v", info, changed, err)
	}
	mu.Lock()
	got := applied
	mu.Unlock()
	if got != 1 {
		t.Fatalf("replica applied version %d, want 1", got)
	}

	// --- The causal chain, hop by hop. ---
	// Coordinator: the build root R with publish_model P as its child.
	build := findTrace(t, coordTracer.Recorder(), "distbuild_build",
		func(tr observe.TraceRecord) bool { return tr.Root == "distbuild_build" })
	traceID := build.TraceID
	pub := spanNamed(t, build, "publish_model")
	if pub.ParentID != build.RootSpanID {
		t.Fatalf("publish_model parent %q, want build root %s", pub.ParentID, build.RootSpanID)
	}

	// Worker: count_partition joined the same trace as a child of R.
	lease := findTrace(t, workerTracer.Recorder(), "count_partition",
		func(tr observe.TraceRecord) bool { return tr.Root == "count_partition" })
	if lease.TraceID != traceID {
		t.Fatalf("worker trace %s, want the build trace %s", lease.TraceID, traceID)
	}
	if lease.RemoteParent != build.RootSpanID {
		t.Fatalf("worker remote parent %q, want build root %s", lease.RemoteParent, build.RootSpanID)
	}
	if root := spanNamed(t, lease, "count_partition"); root.Attrs["worker"] != "alpha" {
		t.Fatalf("lease span attrs %v, want worker=alpha", root.Attrs)
	}

	// Registry: the publish POST's server span descends from P.
	srvSpan := findTrace(t, regTracer.Recorder(), "publish server span",
		func(tr observe.TraceRecord) bool { return tr.RemoteParent == pub.SpanID })
	if srvSpan.TraceID != traceID {
		t.Fatalf("registry trace %s, want %s", srvSpan.TraceID, traceID)
	}

	// Replica: the hot-swap descends from the registry's publish span,
	// completing coordinator → registry → replica across three recorders.
	swap := findTrace(t, replicaTracer.Recorder(), "model_hot_swap",
		func(tr observe.TraceRecord) bool { return tr.Root == "model_hot_swap" })
	if swap.TraceID != traceID {
		t.Fatalf("hot-swap trace %s, want %s", swap.TraceID, traceID)
	}
	if swap.RemoteParent != srvSpan.RootSpanID {
		t.Fatalf("hot-swap remote parent %q, want the registry publish span %s",
			swap.RemoteParent, srvSpan.RootSpanID)
	}
	if root := spanNamed(t, swap, "model_hot_swap"); root.Attrs["version"] != "1" {
		t.Fatalf("hot-swap attrs %v, want version=1", root.Attrs)
	}

	// --- The same trace ID is visible over /debug/traces on multiple
	// processes, exactly as an operator would chase it. ---
	for name, rec := range map[string]*observe.FlightRecorder{
		"coordinator": coordTracer.Recorder(),
		"replica":     replicaTracer.Recorder(),
	} {
		dsrv := httptest.NewServer(observe.DebugHandler(observe.DebugOptions{Traces: true, Recorder: rec}))
		body := httpGet(t, dsrv.URL+"/debug/traces")
		if !strings.Contains(body, traceID) {
			t.Errorf("%s /debug/traces does not list trace %s:\n%s", name, traceID, body)
		}
		detail := httpGet(t, dsrv.URL+"/debug/traces/"+traceID)
		var tree struct {
			TraceID string `json:"trace_id"`
			Root    struct {
				Name string `json:"name"`
			} `json:"root"`
		}
		if err := json.Unmarshal([]byte(detail), &tree); err != nil || tree.TraceID != traceID {
			t.Errorf("%s span tree for %s: err=%v body=%s", name, traceID, err, detail)
		}
		dsrv.Close()
	}
}

// httpGet fetches a URL and returns its body, failing on non-200.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return string(body)
}

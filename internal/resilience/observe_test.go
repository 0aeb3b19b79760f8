package resilience

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/observe"
)

func statusHandler(status int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		_, _ = w.Write([]byte("body"))
	})
}

func TestMetricsMiddlewareRecordsRouteAndCode(t *testing.T) {
	reg := observe.NewRegistry()
	m := NewHTTPMetrics(reg)
	h := Metrics(m)(statusHandler(http.StatusOK))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
	}
	rec := httptest.NewRecorder()
	Metrics(m)(statusHandler(http.StatusBadRequest)).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check-column", nil))

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`autodetect_http_requests_total{route="/v1/health",code="200"} 3`,
		`autodetect_http_requests_total{route="/v1/check-column",code="400"} 1`,
		`autodetect_http_request_seconds_count{route="/v1/health"} 3`,
		`autodetect_http_inflight 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsCountsShedRequests wires the metrics middleware outside the
// admission gate, saturates it, and expects the shed 429 to show up both in the
// per-code counter and the dedicated shed counter.
func TestMetricsCountsShedRequests(t *testing.T) {
	reg := observe.NewRegistry()
	m := NewHTTPMetrics(reg)
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	adm := NewAdmission(AdmissionConfig{MaxConcurrency: 1})
	h := Chain(Metrics(m), adm.Middleware())(slow)

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/check-pair", nil))
	}()
	<-entered // first request holds the only slot

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check-pair", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", rec.Code)
	}
	close(release)
	<-done

	if got := m.shed.Value(); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
	var b strings.Builder
	_ = reg.WriteText(&b)
	if !strings.Contains(b.String(), `autodetect_http_requests_total{route="/v1/check-pair",code="429"} 1`) {
		t.Errorf("429 not counted by route:\n%s", b.String())
	}
}

// TestRequestIDPropagation is the regression test for the request-ID
// contract: the ID arrives in the X-Request-Id response header, an
// incoming ID is echoed back unchanged, and every per-request log line
// carries the same ID under the request_id key.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	logger := observe.NewLogger(&logBuf, observe.LogOptions{Component: "testd"})
	h := Chain(RequestID(), AccessLog(logger))(statusHandler(http.StatusOK))

	// Generated ID: header set, log line correlates.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/readyz", nil))
	id := rec.Header().Get(HeaderRequestID)
	if id == "" {
		t.Fatal("X-Request-Id response header missing")
	}
	if !strings.Contains(logBuf.String(), "request_id="+id) {
		t.Errorf("access log line missing request_id=%s: %s", id, logBuf.String())
	}
	for _, want := range []string{"method=GET", "path=/v1/readyz", "status=200", "component=testd"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("access log missing %q: %s", want, logBuf.String())
		}
	}

	// Client-supplied ID: echoed verbatim and logged.
	logBuf.Reset()
	req := httptest.NewRequest("GET", "/v1/livez", nil)
	req.Header.Set(HeaderRequestID, "client-id-42")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(HeaderRequestID); got != "client-id-42" {
		t.Errorf("echoed ID = %q, want client-id-42", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=client-id-42") {
		t.Errorf("log line missing client request_id: %s", logBuf.String())
	}
}

// TestRequestIDReachesHandlerLogs checks that a handler logging through
// the ctx-aware slog path inherits the request ID without any explicit
// plumbing.
func TestRequestIDReachesHandlerLogs(t *testing.T) {
	var logBuf bytes.Buffer
	logger := observe.NewLogger(&logBuf, observe.LogOptions{})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		logger.InfoContext(r.Context(), "scoring", "values", 3)
		w.WriteHeader(http.StatusOK)
	})
	rec := httptest.NewRecorder()
	RequestID()(inner).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check-column", nil))
	id := rec.Header().Get(HeaderRequestID)
	if id == "" || !strings.Contains(logBuf.String(), "request_id="+id) {
		t.Errorf("handler log line not correlated (id=%q): %s", id, logBuf.String())
	}
}

func TestAccessLogNilLoggerIsNoop(t *testing.T) {
	h := AccessLog(nil)(statusHandler(http.StatusOK))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

package resilience

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/observe"
)

// HTTPMetrics holds the serving-path metric families recorded by the
// Metrics middleware. Construct with NewHTTPMetrics once per registry and
// share the value across the middleware chain.
type HTTPMetrics struct {
	reg      *observe.Registry
	requests *observe.CounterVec   // autodetect_http_requests_total{route,code}
	latency  *observe.HistogramVec // autodetect_http_request_seconds{route}
	shed     *observe.Counter      // autodetect_http_shed_total
	inflight *observe.Gauge        // autodetect_http_inflight

	// Route maps a request to a bounded-cardinality route label. The
	// default uses the raw URL path, which is only safe behind a fixed
	// mux; servers exposed to arbitrary paths must normalize (the service
	// layer maps unknown paths to "other").
	Route func(*http.Request) string
}

// NewHTTPMetrics registers the HTTP serving metric families on reg.
func NewHTTPMetrics(reg *observe.Registry) *HTTPMetrics {
	return &HTTPMetrics{
		reg: reg,
		requests: reg.CounterVec("autodetect_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: reg.HistogramVec("autodetect_http_request_seconds",
			"HTTP request latency in seconds, by route.", observe.DefBuckets, "route"),
		shed: reg.Counter("autodetect_http_shed_total",
			"Requests shed with 429 by the load-shedding limiter."),
		inflight: reg.Gauge("autodetect_http_inflight",
			"Requests currently being served."),
		Route: func(r *http.Request) string { return r.URL.Path },
	}
}

// Metrics records per-route request counts, latency histograms, in-flight
// gauge and shed-429 totals for every request that flows through it, and
// binds the metrics registry into the request context so downstream
// observe.Span calls land in the same registry. Mount it outside the
// limiter and timeout so 429s and 504s are counted like any other
// response.
func Metrics(m *HTTPMetrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := m.Route(r)
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w}
			m.inflight.Add(1)
			defer func() {
				m.inflight.Add(-1)
				code := sw.Status()
				m.requests.With(route, strconv.Itoa(code)).Inc()
				// When the Tracing middleware opened a span upstream, attach
				// its trace ID as the latency bucket's exemplar so slow
				// requests can be followed into /debug/traces.
				m.latency.With(route).ObserveExemplar(
					time.Since(start).Seconds(), observe.TraceIDFrom(r.Context()))
				if code == http.StatusTooManyRequests {
					m.shed.Inc()
				}
			}()
			r = r.WithContext(observe.ContextWithRegistry(r.Context(), m.reg))
			next.ServeHTTP(sw, r)
		})
	}
}

// AccessLog emits one structured log line per request through logger's
// ctx-aware path, so every line carries the request_id injected by the
// RequestID middleware alongside method, route, status, size and latency.
// A nil logger disables the middleware.
func AccessLog(logger *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		if logger == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w}
			next.ServeHTTP(sw, r)
			logger.InfoContext(r.Context(), "request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.Status(),
				"bytes", sw.bytes,
				"duration_ms", float64(time.Since(start).Microseconds())/1000,
			)
		})
	}
}

// statusWriter captures the response status and size while delegating to
// the wrapped writer. Unwrap keeps http.ResponseController features
// (read/write deadlines, flush) reachable through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	n, err := s.ResponseWriter.Write(p)
	s.bytes += int64(n)
	return n, err
}

// Status returns the written status, defaulting to 200 when the handler
// finished without an explicit WriteHeader.
func (s *statusWriter) Status() int {
	if s.status == 0 {
		return http.StatusOK
	}
	return s.status
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

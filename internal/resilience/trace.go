package resilience

import (
	"net/http"
	"strconv"

	"repro/internal/observe"
)

// HeaderTraceID is the response header echoing the hex trace ID of the
// server span created by the Tracing middleware, so clients (and the CI
// smoke) can look a request up in /debug/traces without parsing
// traceparent.
const HeaderTraceID = "X-Trace-Id"

// Tracing binds tr into the request context and opens the per-request
// server span in tr's flight recorder. An inbound W3C traceparent header
// joins the request to its upstream trace (malformed or oversized values
// are rejected by the strict parser, mirroring RequestID's hardening);
// otherwise a fresh trace starts here. The span records method+route,
// final status, and is marked as an error on 5xx responses so the tail
// sampler always retains failing requests.
//
// Mount it directly inside RequestID and outside Metrics: downstream
// log lines then carry trace_id next to request_id, and the latency
// histogram can attach the trace ID as an exemplar.
//
// route maps a request to a bounded span name (nil falls back to the
// URL path truncated to 64 bytes — fine for the recorder, which has no
// cardinality limits to protect). A nil tracer disables the middleware.
func Tracing(tr *observe.Tracer, route func(*http.Request) string) Middleware {
	return func(next http.Handler) http.Handler {
		if tr == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx := observe.ContextWithTracer(r.Context(), tr)
			if sc, ok := observe.ParseTraceparent(r.Header.Get(observe.HeaderTraceparent)); ok {
				ctx = observe.ContextWithRemoteParent(ctx, sc)
			}
			name := r.URL.Path
			if route != nil {
				name = route(r)
			} else if len(name) > 64 {
				name = name[:64]
			}
			ctx, end := observe.RecorderSpan(ctx, r.Method+" "+name)
			w.Header().Set(HeaderTraceID, observe.TraceIDFrom(ctx))
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				code := sw.Status()
				observe.SetSpanAttr(ctx, "status", strconv.Itoa(code))
				if id := observe.RequestIDFrom(ctx); id != "" {
					observe.SetSpanAttr(ctx, "request_id", id)
				}
				if code >= 500 {
					observe.SetSpanError(ctx, http.StatusText(code))
				}
				end()
			}()
			next.ServeHTTP(sw, r.WithContext(ctx))
		})
	}
}

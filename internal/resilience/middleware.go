// Package resilience provides the composable HTTP middleware that hardens
// the Auto-Detect serving stack: panic recovery, propagated per-request
// deadlines, body-size caps, request-ID propagation, and tiered adaptive
// admission control. The paper frames Auto-Detect as an always-on
// "spell-checker for data" background service (Appendix G); this package
// is what keeps that service alive under panicking detectors, slow-loris
// clients, oversized bodies, and overload.
//
// Every autodetectd mode serves behind the one chain Stack assembles:
//
//	h := resilience.Stack(mux, resilience.StackConfig{
//	    Tier:           tierOf,
//	    Route:          routeLabel,
//	    MaxInFlight:    256,
//	    RequestTimeout: 30 * time.Second,
//	    MaxBodyBytes:   8 << 20,
//	    Metrics:        reg,
//	})
package resilience

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/observe"
)

// DefaultRetryAfterSeconds is the shared Retry-After hint, in seconds, for
// every back-off response the stack emits — load-shedding 429s here, the
// jobs queue-full 429, and the distributed build coordinator's 503s — so
// retry pacing is tuned in exactly one place.
const DefaultRetryAfterSeconds = 5

// Middleware wraps an http.Handler with one hardening concern.
type Middleware func(http.Handler) http.Handler

// Chain composes middleware outermost-first: Chain(a, b)(h) serves
// requests through a, then b, then h.
func Chain(mws ...Middleware) Middleware {
	return func(h http.Handler) http.Handler {
		for i := len(mws) - 1; i >= 0; i-- {
			h = mws[i](h)
		}
		return h
	}
}

// HeaderRequestID is the request-ID header read from clients and set on
// every response.
const HeaderRequestID = "X-Request-Id"

// RequestID propagates a well-formed incoming X-Request-Id or generates a
// fresh one, stores it in the request context (observe.RequestIDFrom
// reads it back), and echoes it on the response so every reply —
// including 429s and recovered panics — is attributable in client and
// server logs. slog records emitted through the ctx-aware methods (see
// observe.NewLogger and the AccessLog middleware) carry the same
// request_id as the response header.
//
// Inbound IDs are accepted only when they are 1–128 bytes drawn from
// [A-Za-z0-9._:-]; anything else — oversized values, control bytes,
// quote/newline injection — is replaced with a generated ID so hostile
// clients cannot pollute structured logs or downstream systems keyed by
// the header.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get(HeaderRequestID)
			if !validRequestID(id) {
				var b [8]byte
				_, _ = rand.Read(b[:])
				id = hex.EncodeToString(b[:])
			}
			w.Header().Set(HeaderRequestID, id)
			next.ServeHTTP(w, r.WithContext(observe.ContextWithRequestID(r.Context(), id)))
		})
	}
}

// validRequestID reports whether an inbound request ID is safe to
// propagate: bounded length, charset restricted to token-ish bytes.
func validRequestID(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// errorBody is the JSON error envelope every server in the fleet writes
// (WriteError) and every outbound Client reads (errorMessage).
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the JSON error envelope: msg plus the request's ID,
// which the stack always sets.
func WriteError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg, RequestID: observe.RequestIDFrom(r.Context())})
}

// errorMessage reads the JSON error envelope: its message when body is
// one, else the trimmed body.
func errorMessage(body []byte) string {
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(body))
}

// Recover converts a handler panic into a 500 response carrying the
// request ID, logging the panic value and stack through logf (nil
// discards). The process never dies from a request-scoped panic. If the
// handler had already started writing a response, the write error is
// logged and the connection is left to the server to tear down.
func Recover(logf func(format string, args ...any)) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				p := recover()
				if p == nil || p == http.ErrAbortHandler {
					if p != nil {
						panic(p) // let the server handle deliberate aborts
					}
					return
				}
				if logf != nil {
					logf("panic serving %s %s (request %s): %v\n%s",
						r.Method, r.URL.Path, observe.RequestIDFrom(r.Context()), p, debug.Stack())
				}
				WriteError(w, r, http.StatusInternalServerError, "internal server error")
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// MaxBytes caps the request body at n bytes via http.MaxBytesReader, so a
// client streaming an unbounded body is cut off at the cap instead of
// exhausting memory. n <= 0 disables the cap.
func MaxBytes(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		if n <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// readDeadlineSlack is how far past the request deadline the connection
// read deadline is set, so the 504 is always written before a body read
// fails and wakes the handler.
const readDeadlineSlack = 100 * time.Millisecond

// serveWithDeadline runs next under a per-request deadline d: the handler
// gets a context with the deadline, and if it has not finished when the
// deadline fires the client receives 504 while the handler's late writes
// are discarded. A panic in the handler is re-raised on the serving
// goroutine so an outer Recover middleware observes it. DeadlineBudget
// derives d from the server default and the inbound deadline header.
func serveWithDeadline(w http.ResponseWriter, r *http.Request, d time.Duration, next http.Handler) {
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	// A handler blocked reading a slow-loris body holds the
	// server's request-body mutex, which the server needs before it
	// can flush our 504 — the timeout response would stall until
	// the client finished sending. Bounding the connection read
	// makes that blocked read fail shortly after the deadline
	// instead. The slack past d guarantees the deadline branch
	// below has already abandoned the handler's buffer, so the
	// client always sees the 504, not the handler's reaction to
	// its dying body read. Best-effort: not every ResponseWriter
	// supports read deadlines.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(d + readDeadlineSlack))
	tw := &deadlineWriter{header: make(http.Header)}
	done := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				panicked <- p
				return
			}
			close(done)
		}()
		next.ServeHTTP(tw, r.WithContext(ctx))
	}()
	select {
	case <-done:
		tw.flushTo(w)
	case p := <-panicked:
		panic(p)
	case <-ctx.Done():
		// Once the deadline fires the 504 is authoritative, even if
		// the handler reacted to the cancellation and finished a
		// response in the same instant — preferring a completed
		// buffer here would make the status a coin flip between the
		// 504 and whatever a ctx-aware handler writes on its way
		// out.
		tw.abandon()
		WriteError(w, r, http.StatusGatewayTimeout,
			fmt.Sprintf("request exceeded %s deadline", d))
	}
}

// deadlineWriter buffers a response so that a timed-out handler's late
// writes can be discarded atomically.
type deadlineWriter struct {
	mu        sync.Mutex
	header    http.Header
	status    int
	body      []byte
	abandoned bool
}

func (d *deadlineWriter) Header() http.Header { return d.header }

func (d *deadlineWriter) WriteHeader(status int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.status == 0 {
		d.status = status
	}
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.abandoned {
		return 0, http.ErrHandlerTimeout
	}
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.body = append(d.body, p...)
	return len(p), nil
}

// abandon marks the response as timed out: the buffered writes so far are
// discarded and any later write from the still-running handler fails with
// http.ErrHandlerTimeout.
func (d *deadlineWriter) abandon() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.abandoned = true
}

func (d *deadlineWriter) flushTo(w http.ResponseWriter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.abandoned {
		return
	}
	h := w.Header()
	for k, vs := range d.header {
		h[k] = vs
	}
	if d.status == 0 {
		d.status = http.StatusOK
	}
	w.WriteHeader(d.status)
	_, _ = w.Write(d.body)
}

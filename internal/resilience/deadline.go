package resilience

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/observe"
	"repro/internal/retry"
)

// HeaderDeadline carries a request's remaining deadline budget in
// milliseconds across process hops. Relative-not-absolute is deliberate:
// a remaining-budget header survives clock skew between hosts, an
// absolute timestamp does not. The contract:
//
//   - A client with a context deadline stamps the header with its
//     remaining budget minus a hop allowance (AttachDeadline).
//   - A serving middleware (DeadlineBudget) reads the header, caps the
//     handler's deadline at min(inbound budget, server default), and
//     fast-fails with 504 — before any work — when the budget is already
//     below the route's floor: doomed work helps nobody under overload.
const HeaderDeadline = "X-Deadline-Ms"

// DefaultHopAllowance is subtracted from the remaining budget before it
// is forwarded, reserving time for the network hop and the response to
// travel back.
const DefaultHopAllowance = 50 * time.Millisecond

// AttachDeadline stamps ctx's remaining deadline budget minus hop onto h
// as HeaderDeadline. Returns the forwarded budget and true, or (0, false)
// when ctx has no deadline (nothing is stamped: an unbounded caller
// imposes no bound downstream). A non-positive remaining budget stamps a
// zero header so the callee can fast-fail instead of working for a caller
// that is already gone. hop <= 0 uses DefaultHopAllowance.
func AttachDeadline(ctx context.Context, h http.Header, hop time.Duration) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	if hop <= 0 {
		hop = DefaultHopAllowance
	}
	remaining := time.Until(dl) - hop
	if remaining < 0 {
		remaining = 0
	}
	h.Set(HeaderDeadline, strconv.FormatInt(remaining.Milliseconds(), 10))
	return remaining, true
}

// ParseDeadline reads a HeaderDeadline value, reporting the budget and
// whether the header was present and well-formed. Malformed or negative
// values are ignored (false) — a garbled hint must not grant or deny
// service.
func ParseDeadline(h http.Header) (time.Duration, bool) {
	v := h.Get(HeaderDeadline)
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// DeadlineBudget bounds each request's wall clock with a propagated
// deadline: each request runs under min(def, inbound HeaderDeadline
// budget); past it the client gets 504 while the handler's late writes are
// discarded. A request whose budget is already below floor(r) is
// fast-failed with 504 before any work happens.
// floor may be nil (no fast-fail); def <= 0 disables the middleware
// entirely. reg receives the deadline metric families.
func DeadlineBudget(def time.Duration, floor func(*http.Request) time.Duration, reg *observe.Registry) Middleware {
	fastFails := reg.Counter("autodetect_resilience_deadline_fastfail_total",
		"Requests 504ed before any work because their propagated deadline budget was below the route floor.")
	inherited := reg.Counter("autodetect_resilience_deadline_inherited_total",
		"Requests whose deadline came from the inbound "+HeaderDeadline+" header rather than the server default.")
	return func(next http.Handler) http.Handler {
		if def <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d := def
			if budget, ok := ParseDeadline(r.Header); ok && budget < d {
				d = budget
				inherited.Inc()
			}
			if floor != nil {
				if f := floor(r); f > 0 && d < f {
					fastFails.Inc()
					WriteError(w, r, http.StatusGatewayTimeout, fmt.Sprintf(
						"deadline budget %s below the %s floor for this route; not starting doomed work", d, f))
					return
				}
			}
			serveWithDeadline(w, r, d, next)
		})
	}
}

// RetryAfterFloor wraps err with the response's Retry-After hint as a
// backoff floor (retry.After), so a retrying client never comes back
// sooner than the overloaded server asked it to. Absent or malformed
// hints return err unchanged. Client.Do applies it to every 429 and 5xx
// answer.
func RetryAfterFloor(err error, h http.Header) error {
	if floor, ok := ParseRetryAfter(h.Get("Retry-After")); ok {
		return retry.After(err, floor)
	}
	return err
}

// ParseRetryAfter parses an HTTP Retry-After header value — either
// delay-seconds or an HTTP-date — into a wait duration. Used by internal
// clients to honor a 503/429's pacing hint as a backoff floor (wrap the
// error with retry.After). Returns false for absent or malformed values
// and for dates already in the past.
func ParseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
	}
	return 0, false
}

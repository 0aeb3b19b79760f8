package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/observe"
	"repro/internal/retry"
)

// DefaultAttemptTimeout bounds each attempt of a Client call whose
// Retry.AttemptTimeout is zero, so one hung request (a stalled upload over
// a flaky link) is abandoned and retried instead of pinning the caller.
const DefaultAttemptTimeout = time.Minute

// Client is the one outbound call the fleet's processes make to each
// other: the registry puller, the publish client and the distbuild worker
// all issue their requests through Do. Each caller keeps only how it
// builds a request and what a definitive answer means to it.
type Client struct {
	// HTTP issues the requests (default http.DefaultClient).
	HTTP *http.Client
	// Retry shapes the attempts of each call; an AttemptTimeout of 0
	// means DefaultAttemptTimeout.
	Retry retry.Policy
	// Breaker, when set, guards the peer: every attempt asks Allow first.
	Breaker *Breaker
	// Peer names the server in error messages ("registry",
	// "coordinator").
	Peer string
}

// Do runs one call under c.Retry. newRequest builds a fresh request for
// every attempt, so a retried upload resends from byte zero; Do stamps the
// trace context and the remaining deadline on it. The response body is
// read up to maxBody bytes: a longer body is a permanent error, a read
// that dies partway is transient. A 429 or 5xx is transient, paced by its
// Retry-After hint. Every other answer goes to handle, which returns nil,
// a retry.Transient error for a torn payload, or a permanent error for a
// definitive answer (Refusal renders one).
//
// The breaker records transport failures, 429/5xx, transient handler
// errors and context errors as failures. A definitive answer, any other
// 4xx included, proves the peer is up and records as a success. An open
// breaker fails the attempt with ErrBreakerOpen, which is not transient,
// so the whole retry loop collapses into one local rejection.
func (c Client) Do(ctx context.Context, maxBody int64, newRequest func(context.Context) (*http.Request, error), handle func(*http.Response, []byte) error) error {
	pol := c.Retry
	if pol.AttemptTimeout == 0 {
		pol.AttemptTimeout = DefaultAttemptTimeout
	}
	return pol.DoCtx(ctx, func(actx context.Context) error {
		if c.Breaker == nil {
			return c.attempt(actx, maxBody, newRequest, handle)
		}
		if err := c.Breaker.Allow(); err != nil {
			return err
		}
		err := c.attempt(actx, maxBody, newRequest, handle)
		if retry.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			c.Breaker.Record(err)
		} else {
			c.Breaker.Record(nil) // a definitive answer: the peer is up
		}
		return err
	})
}

// attempt issues one request and classifies its answer.
func (c Client) attempt(ctx context.Context, maxBody int64, newRequest func(context.Context) (*http.Request, error), handle func(*http.Response, []byte) error) error {
	req, err := newRequest(ctx)
	if err != nil {
		return err
	}
	observe.Inject(ctx, req.Header)
	AttachDeadline(ctx, req.Header, 0)
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		// Transport failures (resets, refused connections during a restart,
		// injected faults) are transient: every fleet endpoint is
		// idempotent, so resending is safe even when the original request
		// was delivered.
		return retry.Transient(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return retry.Transient(fmt.Errorf("%s: response interrupted: %w", c.Peer, err))
	}
	if int64(len(body)) > maxBody {
		return fmt.Errorf("%s: response exceeds %d-byte cap", c.Peer, maxBody)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		return RetryAfterFloor(retry.Transient(c.Refusal(resp.StatusCode, body)), resp.Header)
	}
	return handle(resp, body)
}

// Refusal renders a peer's non-success answer as an error, favoring the
// message of the JSON error envelope over the raw body.
func (c Client) Refusal(status int, body []byte) error {
	return fmt.Errorf("%s answered %d: %s", c.Peer, status, errorMessage(body))
}

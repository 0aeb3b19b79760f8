// Package retry implements the capped-exponential-backoff retry policy the
// training pipeline applies to transient I/O: a multi-hour corpus build over
// an NFS mount or a busy disk must not abort because one open() returned
// EAGAIN. Backoff jitter is derived from a seedable splitmix64 stream, so a
// resumed build retries on exactly the same schedule as the original — a
// property the chaos harness relies on when asserting byte-identical models.
//
// Error classification is explicit: errors are retried only when they are
// provably transient (a known retryable errno, a deadline, or a value marked
// with Transient). Everything else — os.ErrNotExist, permission errors,
// malformed-file parse errors — fails fast, because retrying a deterministic
// failure only delays the quarantine decision.
package retry

import (
	"context"
	"database/sql/driver"
	"errors"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// Budget bounds retry volume across every call sharing it — the
// fleet-level defence against retry amplification. Withdraw is consulted
// before each scheduled retry (never the first attempt) and returns false
// when the budget is exhausted; Deposit credits the budget after each
// successful attempt. internal/resilience provides the token-bucket
// implementation; the interface lives here so Policy stays dependency-free.
type Budget interface {
	// Withdraw spends one retry token, reporting false when none remain.
	Withdraw() bool
	// Deposit credits a (fractional) token on success.
	Deposit()
}

// ErrBudgetExhausted marks retries abandoned because the shared Budget ran
// dry. It wraps the operation's last error, so callers can still see what
// kept failing.
var ErrBudgetExhausted = errors.New("retry: budget exhausted")

// Policy configures Do. The zero value is usable: DefaultAttempts attempts,
// DefaultBaseDelay base backoff, DefaultMaxDelay cap, real sleeping. Only
// errors IsTransient accepts are retried.
type Policy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default DefaultAttempts). 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default
	// DefaultBaseDelay); each subsequent retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default DefaultMaxDelay).
	MaxDelay time.Duration
	// Seed drives the deterministic jitter stream. Two Policies with the
	// same Seed back off on the same schedule.
	Seed uint64
	// AttemptTimeout, when positive, bounds each individual attempt with its
	// own context.WithTimeout derived from the call context. An attempt that
	// dies of its per-attempt deadline while the call context is still alive
	// is classified as transient (a hung upload is retried from scratch);
	// the call context expiring stays fatal. Only DoCtx attempts can observe
	// the per-attempt context; Do's op runs under the wall clock alone.
	AttemptTimeout time.Duration
	// Sleep waits out a backoff; tests inject it to run instantly. The
	// default honors context cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, observes each scheduled retry (attempt is the
	// 1-based attempt that just failed).
	OnRetry func(attempt int, err error, backoff time.Duration)
	// Budget, when set, gates every scheduled retry on a shared token
	// bucket: a retry that cannot Withdraw a token ends the call with
	// ErrBudgetExhausted wrapping the last error, and each success
	// Deposits back into the bucket. The first attempt is never charged —
	// budgets bound amplification, not offered load.
	Budget Budget
}

// Defaults for the zero Policy.
const (
	DefaultAttempts  = 3
	DefaultBaseDelay = 50 * time.Millisecond
	DefaultMaxDelay  = 2 * time.Second
)

// Do runs op until it succeeds, returns a non-retryable error, exhausts
// MaxAttempts, or the context is cancelled. The returned error is the last
// error from op (wrapped with the attempt count when attempts were
// exhausted), or the context error when cancelled mid-backoff.
func (p Policy) Do(ctx context.Context, op func() error) error {
	return p.DoCtx(ctx, func(context.Context) error { return op() })
}

// DoCtx is Do for context-aware operations: each attempt receives its own
// context, derived from ctx and — when AttemptTimeout is set — bounded by
// a fresh per-attempt deadline, so one hung attempt (a stalled HTTP upload,
// a wedged NFS read) is abandoned and retried instead of pinning the whole
// call until the caller's deadline. An attempt that fails because its own
// per-attempt deadline expired is retryable even when IsTransient says
// otherwise; ctx itself expiring ends the call with ctx's error.
func (p Policy) DoCtx(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultAttempts
	}
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = DefaultMaxDelay
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = p.attempt(ctx, op)
		if err == nil {
			if p.Budget != nil {
				p.Budget.Deposit()
			}
			return nil
		}
		if !IsTransient(err) && !(p.AttemptTimeout > 0 && isAttemptTimeout(ctx, err)) {
			return err
		}
		if attempt >= attempts {
			return fmt.Errorf("retry: %d attempts exhausted: %w", attempts, err)
		}
		if p.Budget != nil && !p.Budget.Withdraw() {
			return fmt.Errorf("%w after attempt %d: %w", ErrBudgetExhausted, attempt, err)
		}
		d := backoff(base, maxd, attempt, p.Seed)
		if f, ok := BackoffFloor(err); ok && f > d {
			// A server-directed pacing hint (Retry-After) outranks our own
			// schedule: the floor is the earliest the server wants us back.
			d = f
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, d)
		}
		if serr := sleep(ctx, d); serr != nil {
			return serr
		}
	}
}

// attempt runs op once under the per-attempt timeout, when configured.
func (p Policy) attempt(ctx context.Context, op func(ctx context.Context) error) error {
	if p.AttemptTimeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, p.AttemptTimeout)
	defer cancel()
	err := op(actx)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		// The attempt died of its own deadline (or reacted to it) while the
		// call context is still live: that is exactly the hung-I/O case the
		// per-attempt timeout exists for, so mark it retryable even though
		// bare deadline errors classify as fatal.
		return Transient(fmt.Errorf("retry: attempt exceeded %s: %w", p.AttemptTimeout, err))
	}
	return err
}

// isAttemptTimeout is a second line of defence for operations that surface
// a per-attempt deadline as a plain context.DeadlineExceeded (for example
// an http.Client wrapping the attempt context's expiry) without the
// attempt wrapper seeing actx.Err() first. If the error is a deadline
// expiry but the call context is still alive, the deadline can only have
// been the per-attempt one.
func isAttemptTimeout(ctx context.Context, err error) bool {
	return errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
}

// backoff computes the capped exponential delay for the retry after the
// given 1-based failed attempt, with deterministic "equal jitter": half the
// window is guaranteed, the other half is drawn from splitmix64(seed,
// attempt) — so concurrent retriers with different seeds decorrelate while
// a reseeded rerun reproduces its schedule exactly.
func backoff(base, maxd time.Duration, attempt int, seed uint64) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 || d > maxd { // shift overflow or past the cap
		d = maxd
	}
	half := d / 2
	r := splitmix64(seed ^ (uint64(attempt) * 0x9e3779b97f4a7c15))
	return half + time.Duration(r%uint64(half+1))
}

// splitmix64 is the finalizer behind the jitter stream (same construction
// as the pipeline sample's priority hashing).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sleepCtx is the default Sleep: a timer that aborts on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transientMarker tags an error as retryable regardless of its type.
type transientMarker struct{ err error }

func (t *transientMarker) Error() string { return t.err.Error() }
func (t *transientMarker) Unwrap() error { return t.err }

// permanentMarker tags an error as never-retryable.
type permanentMarker struct{ err error }

func (p *permanentMarker) Error() string { return p.err.Error() }
func (p *permanentMarker) Unwrap() error { return p.err }

// Transient marks err as retryable: IsTransient returns true for it and
// anything wrapping it. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientMarker{err}
}

// Permanent marks err as non-retryable even if its underlying cause would
// otherwise classify as transient. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentMarker{err}
}

// afterMarker attaches a server-directed backoff floor to an error — the
// parsed Retry-After of a 503/429 response. DoCtx never sleeps less than
// the floor before the next attempt.
type afterMarker struct {
	err   error
	floor time.Duration
}

func (a *afterMarker) Error() string { return a.err.Error() }
func (a *afterMarker) Unwrap() error { return a.err }

// After attaches a backoff floor to err (typically alongside Transient):
// the retry before the next attempt waits at least floor, no matter what
// the exponential schedule says. A nil err stays nil; a non-positive floor
// attaches nothing.
func After(err error, floor time.Duration) error {
	if err == nil || floor <= 0 {
		return err
	}
	return &afterMarker{err: err, floor: floor}
}

// BackoffFloor reports the largest backoff floor attached anywhere in
// err's chain, or false when none is.
func BackoffFloor(err error) (time.Duration, bool) {
	var floor time.Duration
	found := false
	for err != nil {
		if am, ok := err.(*afterMarker); ok {
			if am.floor > floor {
				floor = am.floor
			}
			found = true
		}
		err = errors.Unwrap(err)
	}
	return floor, found
}

// retryableErrnos are the syscall errors worth a second chance: interrupted
// or would-block calls, resource exhaustion that drains (file tables),
// timeouts, connection resets/refusals/aborts and broken pipes (a peer —
// say a restarting coordinator — that will be back), stale NFS handles and
// plain EIO (which on network filesystems is routinely transient).
var retryableErrnos = []syscall.Errno{
	syscall.EINTR,
	syscall.EAGAIN,
	syscall.EBUSY,
	syscall.ETIMEDOUT,
	syscall.ECONNRESET,
	syscall.ECONNREFUSED,
	syscall.ECONNABORTED,
	syscall.EPIPE,
	syscall.ESTALE,
	syscall.EIO,
	syscall.ENFILE,
	syscall.EMFILE,
}

// IsTransient is the default error classifier: true for values marked with
// Transient, deadline expiries, the retryable errno set, driver.ErrBadConn,
// and the transient SQL error strings database drivers surface; false for
// values marked with Permanent, for definitive filesystem answers
// (not-exist, permission, invalid), for context errors, and for anything
// unrecognized — unknown failures are treated as real, not retried into.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var pm *permanentMarker
	if errors.As(err, &pm) {
		return false
	}
	var tm *transientMarker
	if errors.As(err, &tm) {
		return true
	}
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, os.ErrNotExist), errors.Is(err, os.ErrPermission), errors.Is(err, os.ErrInvalid):
		return false
	case errors.Is(err, os.ErrDeadlineExceeded):
		return true
	}
	for _, errno := range retryableErrnos {
		if errors.Is(err, errno) {
			return true
		}
	}
	if errors.Is(err, driver.ErrBadConn) {
		return true
	}
	msg := strings.ToLower(err.Error())
	for _, marker := range transientSQLMarkers {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

// transientSQLMarkers are error-message substrings common across SQL
// drivers for failures that clear on their own: a dropped connection, a
// server at its connection cap, a lock cycle the engine broke by killing
// one victim. Substring matching is crude, but database/sql drivers
// expose most of these only as strings — and a false positive merely
// costs a bounded, budgeted retry.
var transientSQLMarkers = []string{
	"connection reset",
	"too many connections",
	"deadlock",
}

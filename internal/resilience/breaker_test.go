package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/observe"
)

// fakeClock is a hand-advanced time source for breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

var errBoom = errors.New("boom")

// failN drives n failures through an admitted breaker.
func failN(t *testing.T, b *Breaker, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow() rejected during failure %d: %v", i, err)
		}
		b.Record(errBoom)
	}
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 3, Clock: clk.Now})
	failN(t, b, 2)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	failN(t, b, 1)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow() while open = %v, want ErrBreakerOpen", err)
	}
}

func TestBreakerTripsOnErrorRate(t *testing.T) {
	clk := newFakeClock()
	// Alternate success/failure so the consecutive counter never fires;
	// only the windowed rate can trip.
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 100, Clock: clk.Now})
	for i := 0; i < breakerMinSamples-1; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow() rejected at outcome %d: %v", i, err)
		}
		if i%2 == 0 {
			b.Record(errBoom)
		} else {
			b.Record(nil)
		}
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("state tripped at %d outcomes (<breakerMinSamples): %v", i+1, got)
		}
	}
	// The 10th outcome reaches breakerMinSamples with 5/10 failures >=
	// breakerErrorRate (0.5).
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow() rejected at outcome 10: %v", err)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 5/10 failure window = %v, want open", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, OpenTimeout: 10 * time.Second, Clock: clk.Now})
	failN(t, b, 2)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	// Before the timeout: still rejecting.
	clk.Advance(9 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow() before OpenTimeout = %v, want ErrBreakerOpen", err)
	}
	// After the timeout: exactly one probe admitted, concurrent calls
	// rejected while it is in flight.
	clk.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow() after OpenTimeout = %v, want nil", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half_open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second Allow() during probe = %v, want ErrBreakerOpen", err)
	}
	// Probe succeeds: full reset to closed.
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	// A fresh single failure must not re-trip a reset breaker.
	failN(t, b, 1)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 1 failure post-reset = %v, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, OpenTimeout: 5 * time.Second, Clock: clk.Now})
	failN(t, b, 2)
	clk.Advance(6 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow() = %v, want nil", err)
	}
	b.Record(errBoom)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The re-opened window restarts from the probe's failure time.
	clk.Advance(4 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow() inside re-opened window = %v, want ErrBreakerOpen", err)
	}
	clk.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe Allow() = %v, want nil", err)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", got)
	}
}

func TestBreakerCancelledProbeRearms(t *testing.T) {
	clk := newFakeClock()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 1, OpenTimeout: time.Second, Clock: clk.Now})
	failN(t, b, 1)
	clk.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow() = %v, want nil", err)
	}
	// The probe's caller gave up: neither success nor failure, and the
	// probe slot re-arms for the next caller.
	b.Record(fmt.Errorf("wrapped: %w", context.Canceled))
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cancelled probe = %v, want half_open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("re-armed probe Allow() = %v, want nil", err)
	}
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after re-armed probe success = %v, want closed", got)
	}
}

func TestBreakerDoAndMetrics(t *testing.T) {
	clk := newFakeClock()
	reg := observe.NewRegistry()
	var transitions []string
	b := NewBreaker(BreakerConfig{
		Name:                "dep",
		ConsecutiveFailures: 2,
		OpenTimeout:         time.Second,
		Clock:               clk.Now,
		Metrics:             reg,
		Logf: func(format string, args ...any) {
			transitions = append(transitions, fmt.Sprintf(format, args...))
		},
	})
	for _, outcome := range []error{nil, errBoom, errBoom} {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow while closed = %v", err)
		}
		b.Record(outcome)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		`autodetect_resilience_breaker_state{name="dep"} 2`,
		`autodetect_resilience_breaker_transitions_total{name="dep",to="open"} 1`,
		`autodetect_resilience_breaker_rejections_total{name="dep"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if want := "resilience: breaker dep: closed -> open"; len(transitions) != 1 || transitions[0] != want {
		t.Errorf("transitions = %q, want [%q]", transitions, want)
	}
}

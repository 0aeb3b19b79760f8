package resilience

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/observe"
)

// ErrBreakerOpen is returned by Allow while the breaker is open (or
// half-open with its probe already in flight). It is deliberately NOT
// transient: a retry.Policy's default classifier fails fast on it, so an
// open breaker collapses a whole retry loop into one cheap rejection
// instead of a storm of doomed attempts.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState enumerates the circuit breaker's three states.
type BreakerState int32

const (
	// BreakerClosed admits every call and tallies outcomes.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits exactly one probe call; its outcome decides
	// between reset (closed) and re-trip (open).
	BreakerHalfOpen
	// BreakerOpen rejects every call until the open timeout elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half_open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig parameterizes NewBreaker. The zero value of every field is
// replaced with a sensible default.
type BreakerConfig struct {
	// Name labels the breaker's metrics and log lines ("registry_pull",
	// "distbuild_worker", ...). Default "default".
	Name string
	// ConsecutiveFailures trips the breaker after this many back-to-back
	// failures (default 5).
	ConsecutiveFailures int
	// OpenTimeout is how long the breaker stays open before admitting a
	// half-open probe (default 10s).
	OpenTimeout time.Duration
	// Clock is the time source; tests inject a fake (default time.Now).
	Clock func() time.Time
	// Metrics, when set, receives the autodetect_resilience_breaker_*
	// families labelled by Name.
	Metrics *observe.Registry
	// Logf, when set, receives one line per state transition (called
	// outside the breaker lock).
	Logf func(format string, args ...any)
}

// The windowed error-rate trip: the breaker opens when the failure
// fraction over the last breakerWindow outcomes reaches breakerErrorRate
// with at least breakerMinSamples outcomes recorded.
const (
	breakerErrorRate  = 0.5
	breakerMinSamples = 10
	breakerWindow     = 32
)

// Breaker is a closed/open/half-open circuit breaker guarding one
// downstream dependency. Calls feed outcomes in via Record (Client.Do does
// so for every outbound attempt); once consecutive failures or the windowed error rate cross
// their thresholds the breaker opens, rejecting calls instantly until
// OpenTimeout elapses. The first call after that is admitted as a probe:
// success closes the breaker (full reset), failure re-opens it for another
// window. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecutive int                 // consecutive failures while closed
	window      [breakerWindow]bool // rolling outcomes, true = failure
	windowAt    int                 // next write position
	windowLen   int                 // occupancy (≤ len(window))
	openedAt    time.Time           // when the breaker last opened
	probing     bool                // half-open probe in flight

	stateGauge  *observe.Gauge
	transitions *observe.CounterVec
	rejections  *observe.Counter
}

// NewBreaker validates cfg, applies defaults, and registers the breaker's
// metric families.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	if cfg.ConsecutiveFailures <= 0 {
		cfg.ConsecutiveFailures = 5
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := cfg.Metrics
	return &Breaker{
		cfg: cfg,
		stateGauge: reg.GaugeVec("autodetect_resilience_breaker_state",
			"Circuit breaker state: 0 closed, 1 half-open, 2 open.", "name").With(cfg.Name),
		transitions: reg.CounterVec("autodetect_resilience_breaker_transitions_total",
			"Circuit breaker state transitions, by breaker and destination state.", "name", "to"),
		rejections: reg.CounterVec("autodetect_resilience_breaker_rejections_total",
			"Calls rejected fast because the breaker was open.", "name").With(cfg.Name),
	}
}

// Name returns the breaker's configured name.
func (b *Breaker) Name() string { return b.cfg.Name }

// State reports the current state, applying the open→half-open timer.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Allow reports whether a call may proceed right now: nil to proceed
// (the caller must Record the outcome), ErrBreakerOpen to reject. In the
// half-open state exactly one caller is admitted as the probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.rejections.Inc()
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	default: // open
		b.rejections.Inc()
		return ErrBreakerOpen
	}
}

// Record feeds the outcome of an Allow-admitted call back into the
// breaker. context.Canceled is neutral — the caller gave up, the
// dependency is not implicated — and recorded as neither success nor
// failure (a half-open probe that was cancelled re-arms the probe slot).
func (b *Breaker) Record(err error) {
	failure := err != nil
	if errors.Is(err, context.Canceled) {
		failure = false
		err = nil
		b.mu.Lock()
		if b.state == BreakerHalfOpen {
			b.probing = false // probe never really ran; let another try
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	from := b.state
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if failure {
			b.openLocked()
		} else {
			b.resetLocked()
		}
	case BreakerClosed:
		b.observeLocked(failure)
		if b.tripLocked() {
			b.openLocked()
		}
	default:
		// A straggler finishing after the breaker opened: its outcome is
		// stale, ignore it.
	}
	to := b.state
	b.mu.Unlock()
	b.announce(from, to)
}

// maybeHalfOpenLocked transitions open→half-open once the timeout elapses.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == BreakerOpen && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		b.setStateLocked(BreakerHalfOpen)
		b.probing = false
	}
}

// observeLocked records one closed-state outcome into the counters.
func (b *Breaker) observeLocked(failure bool) {
	if failure {
		b.consecutive++
	} else {
		b.consecutive = 0
	}
	b.window[b.windowAt] = failure
	b.windowAt = (b.windowAt + 1) % len(b.window)
	if b.windowLen < len(b.window) {
		b.windowLen++
	}
}

// tripLocked reports whether either trip condition is met.
func (b *Breaker) tripLocked() bool {
	if b.consecutive >= b.cfg.ConsecutiveFailures {
		return true
	}
	if b.windowLen < breakerMinSamples {
		return false
	}
	failures := 0
	for i := 0; i < b.windowLen; i++ {
		if b.window[i] {
			failures++
		}
	}
	return float64(failures)/float64(b.windowLen) >= breakerErrorRate
}

// openLocked trips the breaker.
func (b *Breaker) openLocked() {
	b.setStateLocked(BreakerOpen)
	b.openedAt = b.cfg.Clock()
	b.probing = false
}

// resetLocked returns to closed with clean counters.
func (b *Breaker) resetLocked() {
	b.setStateLocked(BreakerClosed)
	b.consecutive = 0
	b.windowAt = 0
	b.windowLen = 0
}

func (b *Breaker) setStateLocked(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	b.stateGauge.Set(float64(s))
	b.transitions.With(b.cfg.Name, s.String()).Inc()
}

// announce logs a transition outside the lock.
func (b *Breaker) announce(from, to BreakerState) {
	if from != to && b.cfg.Logf != nil {
		b.cfg.Logf("resilience: breaker %s: %s -> %s", b.cfg.Name, from, to)
	}
}

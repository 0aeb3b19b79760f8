package resilience

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/observe"
)

// Tier is a request's admission priority. Under overload the controller
// sheds background first, then interactive; critical is never shed — the
// probes, admin surfaces and scrapes that explain an overload must keep
// answering through it.
type Tier uint8

const (
	// TierCritical is never shed: health/readiness probes, admin
	// endpoints, metrics scrapes.
	TierCritical Tier = iota
	// TierInteractive is user-facing request/response traffic
	// (/v1/check-*): shed only after background is fully shed.
	TierInteractive
	// TierBackground is batch and fleet-internal traffic (jobs, registry
	// pulls, distbuild): first to go under pressure.
	TierBackground
)

func (t Tier) String() string {
	switch t {
	case TierCritical:
		return "critical"
	case TierInteractive:
		return "interactive"
	case TierBackground:
		return "background"
	}
	return "unknown"
}

// AdmissionConfig parameterizes NewAdmission.
type AdmissionConfig struct {
	// MaxConcurrency is the AIMD limit's upper bound and starting value —
	// the same knob the flat -max-inflight gate used to be. <= 0 disables
	// admission control entirely (Middleware passes through).
	MaxConcurrency int
	// Target is the latency the limit adapts toward (default 250ms):
	// completions slower than Target shrink the limit multiplicatively,
	// completions under it grow the limit additively.
	Target time.Duration
	// Tier classifies requests (default: everything TierInteractive).
	Tier func(*http.Request) Tier
	// Clock is the time source; tests inject a fake (default time.Now).
	Clock func() time.Time
	// Metrics, when set, receives the admission metric families.
	Metrics *observe.Registry
}

const (
	// minConcurrency is the AIMD limit's lower bound: even in the deepest
	// brownout some interactive work is admitted.
	minConcurrency = 1
	// backgroundFrac is the fraction of the current limit available to
	// background requests, so background saturates — and sheds — well
	// before interactive does.
	backgroundFrac = 0.5
	// decreaseFactor is the multiplicative backoff applied to the limit on
	// an over-target completion, at most once per Target interval so one
	// slow burst doesn't collapse the limit to the floor.
	decreaseFactor = 0.9
)

// Admission is the priority-tiered, latency-adaptive concurrency gate that
// replaces the flat inflight semaphore. One AIMD-controlled limit L floats
// between minConcurrency and MaxConcurrency, tracking observed latency
// against Target; admission is then tiered against L:
//
//	critical:    always admitted (and still counted inflight)
//	interactive: admitted while inflight < L
//	background:  admitted while inflight < max(1, backgroundFrac·L)
//
// so overload sheds background first, then interactive, never critical.
// Shed requests get 429 + Retry-After immediately — fast rejection keeps
// tail latency sane for the admitted. Safe for concurrent use.
type Admission struct {
	cfg AdmissionConfig

	mu           sync.Mutex
	limit        float64
	inflight     int
	lastDecrease time.Time

	limitGauge    *observe.Gauge
	inflightGauge *observe.Gauge
	sheds         *observe.CounterVec
	admitted      *observe.CounterVec
}

// NewAdmission applies defaults and registers the admission metric
// families. A disabled gate (MaxConcurrency <= 0) exports none.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.Target <= 0 {
		cfg.Target = 250 * time.Millisecond
	}
	if cfg.Tier == nil {
		cfg.Tier = func(*http.Request) Tier { return TierInteractive }
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	reg := cfg.Metrics
	if cfg.MaxConcurrency <= 0 {
		reg = nil
	}
	a := &Admission{cfg: cfg, limit: float64(cfg.MaxConcurrency)}
	a.limitGauge = reg.Gauge("autodetect_resilience_admit_limit",
		"Current AIMD concurrency limit the admission controller adapts toward its latency target.")
	a.limitGauge.Set(a.limit)
	a.inflightGauge = reg.Gauge("autodetect_resilience_admit_inflight",
		"Requests currently admitted across all tiers.")
	a.sheds = reg.CounterVec("autodetect_resilience_sheds_total",
		"Requests shed with 429 by the tiered admission controller, by tier.", "tier")
	a.admitted = reg.CounterVec("autodetect_resilience_admitted_total",
		"Requests admitted by the tiered admission controller, by tier.", "tier")
	// Pre-create the per-tier children so every tier is visible on
	// /metrics from the first scrape — "zero critical sheds" should be
	// an asserted 0, not a missing series.
	for _, t := range []Tier{TierCritical, TierInteractive, TierBackground} {
		a.sheds.With(t.String())
		a.admitted.With(t.String())
	}
	return a
}

// Limit returns the current AIMD concurrency limit.
func (a *Admission) Limit() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit
}

// acquire admits or sheds one request of the given tier.
func (a *Admission) acquire(t Tier) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	bound := a.limit
	if t == TierBackground {
		bound = a.limit * backgroundFrac
		if bound < 1 {
			bound = 1
		}
	}
	if t != TierCritical && float64(a.inflight) >= bound {
		return false
	}
	a.inflight++
	a.inflightGauge.Set(float64(a.inflight))
	return true
}

// release returns a slot and applies the AIMD update for the completion's
// observed latency.
func (a *Admission) release(latency time.Duration) {
	now := a.cfg.Clock()
	a.mu.Lock()
	a.inflight--
	a.inflightGauge.Set(float64(a.inflight))
	if latency > a.cfg.Target {
		// Multiplicative decrease, at most once per Target window: a batch
		// of slow completions is one overload signal, not N.
		if now.Sub(a.lastDecrease) >= a.cfg.Target {
			a.limit *= decreaseFactor
			if a.limit < minConcurrency {
				a.limit = minConcurrency
			}
			a.lastDecrease = now
		}
	} else {
		// Additive increase, ~1 slot per limit's worth of fast
		// completions.
		a.limit += 1 / a.limit
		if max := float64(a.cfg.MaxConcurrency); a.limit > max {
			a.limit = max
		}
	}
	a.limitGauge.Set(a.limit)
	a.mu.Unlock()
}

// Middleware returns the admission gate as a middleware. A nil Admission
// or MaxConcurrency <= 0 passes through.
func (a *Admission) Middleware() Middleware {
	return func(next http.Handler) http.Handler {
		if a == nil || a.cfg.MaxConcurrency <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tier := a.cfg.Tier(r)
			if !a.acquire(tier) {
				a.sheds.With(tier.String()).Inc()
				w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfterSeconds))
				WriteError(w, r, http.StatusTooManyRequests,
					"server overloaded ("+tier.String()+" tier shed), retry later")
				return
			}
			a.admitted.With(tier.String()).Inc()
			start := a.cfg.Clock()
			defer func() { a.release(a.cfg.Clock().Sub(start)) }()
			next.ServeHTTP(w, r)
		})
	}
}

package resilience

import (
	"sync"

	"repro/internal/observe"
)

// BudgetConfig parameterizes NewRetryBudget.
type BudgetConfig struct {
	// Name labels the budget's metrics ("registry_pull", "publish", ...).
	// Default "default".
	Name string
	// Burst caps the token balance and is the starting balance (default
	// 10), so a cold client can still ride out a brief fault before
	// earning credit.
	Burst float64
	// Metrics, when set, receives the autodetect_resilience_retry_budget_*
	// families labelled by Name.
	Metrics *observe.Registry
}

// budgetRatio is the fraction of a token deposited per successful attempt:
// one retry earned per ten successes.
const budgetRatio = 0.1

// RetryBudget is a token bucket bounding retry amplification: every retry
// spends one token, every success deposits budgetRatio of a token, and the
// balance never exceeds Burst. Under total failure the bucket drains and
// stays empty — total retries across all callers sharing the budget are
// bounded by the initial balance plus deposits, no matter how many hops
// keep failing. Implements retry.Budget; plug it into a retry.Policy's
// Budget field. Safe for concurrent use.
type RetryBudget struct {
	cfg BudgetConfig

	mu      sync.Mutex
	balance float64

	balanceGauge *observe.Gauge
	exhausted    *observe.Counter
	withdrawals  *observe.Counter
}

// NewRetryBudget applies defaults and registers the budget's metric
// families.
func NewRetryBudget(cfg BudgetConfig) *RetryBudget {
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 10
	}
	reg := cfg.Metrics
	b := &RetryBudget{
		cfg:     cfg,
		balance: cfg.Burst,
		balanceGauge: reg.GaugeVec("autodetect_resilience_retry_budget_balance",
			"Retry-budget token balance, by client.", "client").With(cfg.Name),
		exhausted: reg.CounterVec("autodetect_resilience_retry_budget_exhausted_total",
			"Retries abandoned because the budget ran dry, by client.", "client").With(cfg.Name),
		withdrawals: reg.CounterVec("autodetect_resilience_retry_budget_withdrawals_total",
			"Retry tokens spent, by client.", "client").With(cfg.Name),
	}
	b.balanceGauge.Set(b.balance)
	return b
}

// Withdraw spends one retry token; false means the budget is exhausted and
// the retry must not happen.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The epsilon forgives accumulated float error: ten 0.1-deposits sum
	// to 0.9999999999999999 and must still fund one retry.
	if b.balance < 1-1e-9 {
		b.exhausted.Inc()
		return false
	}
	b.balance--
	b.withdrawals.Inc()
	b.balanceGauge.Set(b.balance)
	return true
}

// Deposit credits budgetRatio of a token, saturating at Burst.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.balance += budgetRatio
	if b.balance > b.cfg.Burst {
		b.balance = b.cfg.Burst
	}
	b.balanceGauge.Set(b.balance)
}

// Balance returns the current token balance.
func (b *RetryBudget) Balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balance
}

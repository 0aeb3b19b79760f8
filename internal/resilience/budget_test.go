package resilience

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/observe"
	"repro/internal/retry"
)

func TestRetryBudgetWithdrawDeposit(t *testing.T) {
	b := NewRetryBudget(BudgetConfig{Burst: 2})
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("fresh budget must cover Burst withdrawals")
	}
	if b.Withdraw() {
		t.Fatal("drained budget must reject the next withdrawal")
	}
	deposit := func(n int) {
		for i := 0; i < n; i++ {
			b.Deposit()
		}
	}
	deposit(5) // 5 × budgetRatio (0.1): half a token
	if b.Withdraw() {
		t.Fatal("half a token must not fund a retry")
	}
	deposit(5) // balance 1.0, up to float error
	if !b.Withdraw() {
		t.Fatal("a full deposited token must fund a retry")
	}
	deposit(30)
	if got := b.Balance(); got != 2 {
		t.Fatalf("balance saturates at Burst: got %v, want 2", got)
	}
}

// TestRetryBudgetBoundsAttempts is the amplification property the tentpole
// promises: under 100% failure, total attempts across N calls stay within
// N (the first attempt of each call is free) plus the budget's initial
// balance — no matter how many attempts the policy itself would allow.
func TestRetryBudgetBoundsAttempts(t *testing.T) {
	const calls = 50
	const burst = 7
	b := NewRetryBudget(BudgetConfig{Burst: burst})
	pol := retry.Policy{
		MaxAttempts: 10,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Budget:      b,
	}
	attempts := 0
	exhausted := 0
	for i := 0; i < calls; i++ {
		err := pol.DoCtx(context.Background(), func(context.Context) error {
			attempts++
			return retry.Transient(errors.New("down"))
		})
		if err == nil {
			t.Fatal("op always fails; DoCtx must not succeed")
		}
		if errors.Is(err, retry.ErrBudgetExhausted) {
			exhausted++
		}
	}
	if bound := calls + burst; attempts > bound {
		t.Fatalf("attempts = %d, want <= %d (calls %d + burst %d)", attempts, bound, calls, burst)
	}
	// The budget must actually have bitten: without it, 50 calls × 10
	// attempts = 500.
	if attempts >= calls*pol.MaxAttempts {
		t.Fatalf("attempts = %d: the budget never limited anything", attempts)
	}
	if exhausted == 0 {
		t.Fatal("expected at least one ErrBudgetExhausted result")
	}
	if got := b.Balance(); got >= 1 {
		t.Fatalf("balance after total failure = %v, want < 1", got)
	}
}

// TestRetryBudgetRecoversOnSuccess checks deposits refill retry capacity.
func TestRetryBudgetRecoversOnSuccess(t *testing.T) {
	b := NewRetryBudget(BudgetConfig{Burst: 2})
	pol := retry.Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Budget:      b,
	}
	// Drain under failure.
	for i := 0; i < 4; i++ {
		_ = pol.DoCtx(context.Background(), func(context.Context) error {
			return retry.Transient(errors.New("down"))
		})
	}
	if b.Balance() >= 1 {
		t.Fatalf("balance = %v, want drained", b.Balance())
	}
	// 10 successes at budgetRatio 0.1 earn one retry back.
	for i := 0; i < 10; i++ {
		if err := pol.DoCtx(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatalf("success path errored: %v", err)
		}
	}
	if got := b.Balance(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("balance after 10 successes = %v, want 1", got)
	}
	if !b.Withdraw() {
		t.Fatal("earned token must fund a retry")
	}
}

func TestRetryBudgetMetrics(t *testing.T) {
	reg := observe.NewRegistry()
	b := NewRetryBudget(BudgetConfig{Name: "pull", Burst: 1, Metrics: reg})
	b.Withdraw()
	b.Withdraw() // exhausted
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		`autodetect_resilience_retry_budget_balance{client="pull"} 0`,
		`autodetect_resilience_retry_budget_withdrawals_total{client="pull"} 1`,
		`autodetect_resilience_retry_budget_exhausted_total{client="pull"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

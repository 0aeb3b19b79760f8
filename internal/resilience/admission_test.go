package resilience

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/observe"
)

// pathTier classifies by prefix for the tests.
func pathTier(r *http.Request) Tier {
	switch {
	case strings.HasPrefix(r.URL.Path, "/admin"):
		return TierCritical
	case strings.HasPrefix(r.URL.Path, "/jobs"):
		return TierBackground
	default:
		return TierInteractive
	}
}

// blockingHarness serves requests that park until released, so tests can
// pin the inflight count at an exact value.
type blockingHarness struct {
	h       http.Handler
	release chan struct{}
	entered chan struct{}
}

func newBlockingHarness(a *Admission) *blockingHarness {
	bh := &blockingHarness{
		release: make(chan struct{}),
		entered: make(chan struct{}, 64),
	}
	bh.h = a.Middleware()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bh.entered <- struct{}{}
		<-bh.release
		w.WriteHeader(http.StatusOK)
	}))
	return bh
}

// occupy starts n parked requests and waits until all are inside.
func (bh *blockingHarness) occupy(t *testing.T, n int, path string) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			bh.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-bh.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never admitted", i)
		}
	}
	return &wg
}

func (bh *blockingHarness) status(path string) int {
	rec := httptest.NewRecorder()
	bh.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

func TestAdmissionShedsBackgroundFirst(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrency: 4, Tier: pathTier})
	bh := newBlockingHarness(a)

	// 2 inflight = background bound (4*backgroundFrac): background sheds,
	// interactive still admitted.
	wg := bh.occupy(t, 2, "/check")
	if got := bh.status("/jobs/submit"); got != http.StatusTooManyRequests {
		t.Fatalf("background at bound: status = %d, want 429", got)
	}
	wg2 := bh.occupy(t, 2, "/check")
	// 4 inflight = full limit: interactive sheds too, critical never.
	if got := bh.status("/check"); got != http.StatusTooManyRequests {
		t.Fatalf("interactive at limit: status = %d, want 429", got)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/jobs/x", nil)
	bh.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("background at limit: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	done := make(chan struct{})
	go func() {
		if got := bh.status("/admin/reload"); got != http.StatusOK {
			t.Errorf("critical at limit: status = %d, want 200", got)
		}
		close(done)
	}()
	select {
	case <-bh.entered: // the critical request got in past the full limit
	case <-time.After(5 * time.Second):
		t.Fatal("critical request never admitted")
	}
	close(bh.release)
	wg.Wait()
	wg2.Wait()
	<-done
}

func TestAdmissionAIMDAdaptsLimit(t *testing.T) {
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{
		MaxConcurrency: 100,
		Target:         100 * time.Millisecond,
		Clock:          clk.Now,
	})
	if got := a.Limit(); got != 100 {
		t.Fatalf("initial limit = %v, want 100", got)
	}
	// One over-target completion cuts the limit by decreaseFactor (0.9)...
	if !a.acquire(TierInteractive) {
		t.Fatal("acquire failed")
	}
	clk.Advance(200 * time.Millisecond)
	a.release(200 * time.Millisecond)
	if got := a.Limit(); got != 90 {
		t.Fatalf("limit after slow completion = %v, want 90", got)
	}
	// ...but a burst of slow completions inside one Target window counts
	// once.
	for i := 0; i < 5; i++ {
		if !a.acquire(TierInteractive) {
			t.Fatal("acquire failed")
		}
		a.release(200 * time.Millisecond)
	}
	if got := a.Limit(); got != 90 {
		t.Fatalf("limit after same-window slow burst = %v, want still 90", got)
	}
	// Fast completions grow it back additively (+1/limit each).
	for i := 0; i < 100; i++ {
		if !a.acquire(TierInteractive) {
			t.Fatal("acquire failed")
		}
		a.release(10 * time.Millisecond)
	}
	if got := a.Limit(); got <= 90 || got > 100 {
		t.Fatalf("limit after fast completions = %v, want (90, 100]", got)
	}
}

func TestAdmissionAIMDRespectsMin(t *testing.T) {
	clk := newFakeClock()
	a := NewAdmission(AdmissionConfig{
		MaxConcurrency: 8,
		Target:         10 * time.Millisecond,
		Clock:          clk.Now,
	})
	for i := 0; i < 50; i++ {
		if !a.acquire(TierCritical) {
			t.Fatal("critical acquire failed")
		}
		clk.Advance(20 * time.Millisecond)
		a.release(20 * time.Millisecond)
	}
	// 8·0.9^50 is far below the floor.
	if got := a.Limit(); got != minConcurrency {
		t.Fatalf("limit floor = %v, want minConcurrency %d", got, minConcurrency)
	}
	// Even in the deepest brownout interactive work is admitted.
	if !a.acquire(TierInteractive) {
		t.Fatal("interactive rejected below minConcurrency occupancy")
	}
	a.release(time.Millisecond)
}

func TestAdmissionMetricsAndPassThrough(t *testing.T) {
	reg := observe.NewRegistry()
	a := NewAdmission(AdmissionConfig{MaxConcurrency: 1, Tier: pathTier, Metrics: reg})
	h := a.Middleware()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/check", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	page := sb.String()
	for _, want := range []string{
		`autodetect_resilience_sheds_total{tier="critical"} 0`,
		`autodetect_resilience_sheds_total{tier="background"} 0`,
		`autodetect_resilience_admitted_total{tier="interactive"} 1`,
		"autodetect_resilience_admit_limit 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	// MaxConcurrency <= 0 disables admission entirely.
	off := NewAdmission(AdmissionConfig{MaxConcurrency: 0})
	h = off.Middleware()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/anything", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("disabled admission: status = %d, want 200", rec.Code)
	}
}

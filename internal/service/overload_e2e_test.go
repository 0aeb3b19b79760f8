package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/observe"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/retry"
	"repro/internal/semantic"
)

// metricValue extracts one sample's value from a Prometheus text page.
func metricValue(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found on page", series)
	return 0
}

// TestOverloadChaos is the end-to-end degradation drill the tentpole
// promises: a replica whose registry dependency wedges mid-flight while
// client load runs at 4x its concurrency limit must (a) bound its upstream
// retry traffic by the retry budget and breaker, (b) shed background
// before interactive and never shed critical, and (c) recover to baseline
// within one breaker reset window once the fault heals — all while
// /v1/readyz reports degraded-but-serving instead of dropping out of
// rotation.
func TestOverloadChaos(t *testing.T) {
	det, sem := trainedModel(t)
	mreg := observe.NewRegistry()
	ctx := context.Background()

	// --- Upstream registry with one published model, behind a
	// fault-injecting transport the test can wedge at will. ---
	store, err := registry.Open(t.TempDir(), registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := det.Save(&raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Publish(raw.Bytes(), "", "chaos", ""); err != nil {
		t.Fatal(err)
	}
	var registryHits atomic.Int64
	regHandler := registry.NewServer(store).Handler()
	regSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		registryHits.Add(1)
		regHandler.ServeHTTP(w, r)
	}))
	defer regSrv.Close()

	ft := faultfs.NewTransport(http.DefaultTransport, faultfs.HTTPConfig{Seed: 1})

	const openTimeout = 500 * time.Millisecond
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		Name:                "registry_pull",
		ConsecutiveFailures: 3,
		OpenTimeout:         openTimeout,
		Metrics:             mreg,
	})
	const burst = 4
	budget := resilience.NewRetryBudget(resilience.BudgetConfig{
		Name: "registry_pull", Burst: burst, Metrics: mreg,
	})
	puller, err := registry.NewPuller(registry.PullerConfig{
		URL:     regSrv.URL,
		HTTP:    &http.Client{Transport: ft},
		Retry:   retry.Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, AttemptTimeout: 100 * time.Millisecond},
		Breaker: breaker,
		Budget:  budget,
		Apply:   func(registry.VersionInfo, []byte) error { return nil },
		Metrics: mreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, changed, err := puller.PullNow(ctx); err != nil || !changed {
		t.Fatalf("baseline pull: changed=%t err=%v", changed, err)
	}

	// --- Replica under test: limit 4, background bound 2, AIMD held inert
	// by a huge latency target so the tier bounds stay exact. ---
	reloadGate := make(chan struct{})
	reloadEntered := make(chan struct{}, 64)
	var reloadFast atomic.Bool
	svc := NewWithInfo(det, sem, ModelInfo{Source: "chaos"})
	svc.MaxInFlight = 4
	svc.LatencyTarget = time.Minute
	svc.Metrics = mreg
	svc.DegradedCheck = func() []string {
		if breaker.State() != resilience.BreakerClosed {
			return []string{"registry_breaker_open"}
		}
		return nil
	}
	svc.Reload = func() (*core.Detector, *semantic.Model, ModelInfo, error) {
		if !reloadFast.Load() {
			reloadEntered <- struct{}{}
			<-reloadGate
		}
		return det, sem, ModelInfo{Source: "chaos"}, nil
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	readyz := func() readyzResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/readyz status %d", resp.StatusCode)
		}
		var rz readyzResponse
		if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
			t.Fatal(err)
		}
		return rz
	}
	// park occupies n admission slots with critical requests whose reload
	// hook blocks until the gate closes, pinning inflight at an exact value.
	park := func(n int) *sync.WaitGroup {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", nil)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("parked reload: status %d, want 200", resp.StatusCode)
				}
			}()
		}
		for i := 0; i < n; i++ {
			select {
			case <-reloadEntered:
			case <-time.After(10 * time.Second):
				t.Fatalf("parked request %d never admitted", i)
			}
		}
		return &wg
	}

	if rz := readyz(); rz.Status != "ready" {
		t.Fatalf("baseline readyz = %+v, want ready", rz)
	}

	// --- Shed ordering: background first, interactive next, critical never.
	wg1 := park(2) // inflight 2 == background bound (4 * 0.5)
	if got := get("/v1/jobs/some-id"); got != http.StatusTooManyRequests {
		t.Fatalf("background at its bound: status %d, want 429", got)
	}
	if got := get("/v1/health"); got != http.StatusOK {
		t.Fatalf("interactive while only background is shed: status %d, want 200", got)
	}
	wg2 := park(2) // inflight 4 == full limit
	if got := get("/v1/health"); got != http.StatusTooManyRequests {
		t.Fatalf("interactive at the limit: status %d, want 429", got)
	}

	// --- Wedge the registry and keep polling: the breaker plus retry
	// budget must collapse the poll loop to a bounded trickle, and the
	// stalled upstream must see zero of it. ---
	ft.SetStall(true)
	reqsBefore := ft.Requests()
	hitsBefore := registryHits.Load()
	const polls = 12
	breakerRejected := 0
	for i := 0; i < polls; i++ {
		if _, _, err := puller.PullNow(ctx); errors.Is(err, resilience.ErrBreakerOpen) {
			breakerRejected++
		}
		time.Sleep(30 * time.Millisecond)
	}
	stallReqs := ft.Requests() - reqsBefore
	if bound := uint64(polls + burst); stallReqs > bound {
		t.Fatalf("upstream attempts during stall = %d, want <= %d (polls %d + budget burst %d)",
			stallReqs, bound, polls, burst)
	}
	if breakerRejected == 0 {
		t.Fatal("breaker never collapsed a poll round to ErrBreakerOpen")
	}
	if ft.Stalls() == 0 {
		t.Fatal("forced stall never engaged")
	}
	if hits := registryHits.Load() - hitsBefore; hits != 0 {
		t.Fatalf("wedged registry served %d requests, want 0", hits)
	}
	if st := breaker.State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker state during stall = %v, want open", st)
	}
	if rz := readyz(); rz.Status != "degraded" || len(rz.Degraded) == 0 || rz.Degraded[0] != "registry_breaker_open" {
		t.Fatalf("readyz during outage = %+v, want degraded-but-serving with registry_breaker_open", rz)
	}

	// --- 4x overload at full saturation: every interactive request sheds,
	// every critical request still lands. ---
	const overloadFactor = 4
	var wgLoad sync.WaitGroup
	var shed429, served200 atomic.Int64
	for i := 0; i < overloadFactor*svc.MaxInFlight; i++ {
		wgLoad.Add(1)
		go func() {
			defer wgLoad.Done()
			switch get("/v1/health") {
			case http.StatusTooManyRequests:
				shed429.Add(1)
			case http.StatusOK:
				served200.Add(1)
			}
		}()
	}
	wgLoad.Wait()
	if got := shed429.Load(); got != overloadFactor*int64(svc.MaxInFlight) {
		t.Fatalf("interactive sheds under 4x overload = %d (200s: %d), want all %d shed",
			got, served200.Load(), overloadFactor*svc.MaxInFlight)
	}
	reloadFast.Store(true)
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("critical during saturated overload: status %d, want 200", resp.StatusCode)
		}
	}

	// --- Heal: release the parked work and un-wedge the registry. The
	// breaker must close within one reset window (plus scheduling slack)
	// and interactive traffic must return to all-200s. ---
	close(reloadGate)
	wg1.Wait()
	wg2.Wait()
	ft.SetStall(false)
	healStart := time.Now()
	recovered := false
	for time.Since(healStart) < 10*time.Second {
		if _, _, err := puller.PullNow(ctx); err == nil && breaker.State() == resilience.BreakerClosed {
			recovered = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("breaker never closed after the fault healed")
	}
	recoveredIn := time.Since(healStart)
	// Worst case the open window restarted just before the heal: one full
	// OpenTimeout until the probe, then one successful round. Anything
	// beyond one window plus generous scheduling slack is a regression.
	if recoveredIn > openTimeout+2*time.Second {
		t.Fatalf("recovery took %v, want within one %v reset window (plus slack)", recoveredIn, openTimeout)
	}
	if rz := readyz(); rz.Status != "ready" {
		t.Fatalf("readyz after heal = %+v, want ready", rz)
	}
	for i := 0; i < 20; i++ {
		if got := get("/v1/health"); got != http.StatusOK {
			t.Fatalf("interactive after heal: request %d got %d, want 200 (baseline restored)", i, got)
		}
	}

	// --- Post-recovery interactive goodput, and the shed ledger: the
	// critical series must exist and read exactly zero. ---
	payload := map[string]any{"values": []string{
		"2011-01-01", "2012-05-14", "2013-11-30", "2011/06/20",
	}}
	const goodputRequests = 100
	lat := make([]time.Duration, 0, goodputRequests)
	for i := 0; i < goodputRequests; i++ {
		start := time.Now()
		resp, _ := postJSON(t, ts.URL+"/v1/check-column", payload)
		lat = append(lat, time.Since(start))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("goodput request %d: status %d", i, resp.StatusCode)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	pageRaw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(pageRaw)
	shedCrit := metricValue(t, page, `autodetect_resilience_sheds_total{tier="critical"}`)
	shedInt := metricValue(t, page, `autodetect_resilience_sheds_total{tier="interactive"}`)
	shedBg := metricValue(t, page, `autodetect_resilience_sheds_total{tier="background"}`)
	if shedCrit != 0 {
		t.Fatalf("critical sheds = %v, want exactly 0", shedCrit)
	}
	if shedInt == 0 || shedBg == 0 {
		t.Fatalf("shed ledger interactive=%v background=%v, want both > 0", shedInt, shedBg)
	}
	for _, series := range []string{
		`autodetect_resilience_breaker_state{name="registry_pull"}`,
		`autodetect_resilience_retry_budget_balance{client="registry_pull"}`,
		"autodetect_resilience_admit_limit",
	} {
		metricValue(t, page, series) // existence is the assertion
	}

	t.Logf("stall attempts=%d/%d sheds crit/int/bg=%v/%v/%v recovered=%.0fms goodput p50=%.2fms p99=%.2fms",
		stallReqs, polls+burst, shedCrit, shedInt, shedBg,
		float64(recoveredIn)/float64(time.Millisecond), quantileMillis(lat, 0.50), quantileMillis(lat, 0.99))
}

package registry

// Fleet-side client behavior: conditional polling with 304 deltas,
// digest-verified downloads, fault-injected transports, and riding out
// registry restarts.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/observe"
	"repro/internal/resilience"
	"repro/internal/retry"
)

// newTestPuller builds a puller against base whose Apply records the last
// applied (info, bytes) pair.
func newTestPuller(t *testing.T, base string, client *http.Client) (*Puller, *appliedState) {
	t.Helper()
	st := &appliedState{}
	p, err := NewPuller(PullerConfig{
		URL:  base,
		HTTP: client,
		Retry: retry.Policy{
			MaxAttempts: 8,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		},
		Apply: func(info VersionInfo, raw []byte) error {
			st.set(info, raw)
			return nil
		},
		Logf:    t.Logf,
		Metrics: observe.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, st
}

type appliedState struct {
	mu atomic.Pointer[appliedPair]
}

type appliedPair struct {
	info VersionInfo
	raw  []byte
}

func (s *appliedState) set(info VersionInfo, raw []byte) {
	s.mu.Store(&appliedPair{info: info, raw: append([]byte(nil), raw...)})
}

func (s *appliedState) get() (VersionInfo, []byte) {
	p := s.mu.Load()
	if p == nil {
		return VersionInfo{}, nil
	}
	return p.info, p.raw
}

func TestPullerAppliesAndPollsWithDeltas(t *testing.T) {
	models := testModels(t)
	store, srv := newTestServer(t)
	p, applied := newTestPuller(t, srv.URL, srv.Client())
	ctx := context.Background()

	// Empty registry: a poll is benign, nothing applied.
	if info, changed, err := p.PullNow(ctx); err != nil || changed || info.Version != 0 {
		t.Fatalf("empty poll: info=%+v changed=%t err=%v", info, changed, err)
	}

	if _, _, err := store.Publish(models[0], "", "test", ""); err != nil {
		t.Fatal(err)
	}
	info, changed, err := p.PullNow(ctx)
	if err != nil || !changed || info.Version != 1 {
		t.Fatalf("first pull: info=%+v changed=%t err=%v", info, changed, err)
	}
	gotInfo, raw := applied.get()
	if gotInfo.Version != 1 || !bytes.Equal(raw, models[0]) {
		t.Fatalf("applied: %+v bytes-match=%t", gotInfo, bytes.Equal(raw, models[0]))
	}

	// Unchanged poll is a 304 delta: not changed, not re-applied.
	if _, changed, err := p.PullNow(ctx); err != nil || changed {
		t.Fatalf("unchanged poll: changed=%t err=%v", changed, err)
	}
	if p.met.notModified.Value() != 1 {
		t.Fatalf("client not_modified = %v, want 1", p.met.notModified.Value())
	}

	// Publish v2 → next poll downloads and applies it.
	if _, _, err := store.Publish(models[1], "", "test", ""); err != nil {
		t.Fatal(err)
	}
	if info, changed, err := p.PullNow(ctx); err != nil || !changed || info.Version != 2 {
		t.Fatalf("second pull: info=%+v changed=%t err=%v", info, changed, err)
	}
	if gotInfo, raw := applied.get(); gotInfo.Version != 2 || !bytes.Equal(raw, models[1]) {
		t.Fatalf("applied after publish: %+v", gotInfo)
	}

	// Rollback: pin v1 → next poll converges back to v1.
	if _, _, err := store.Pin(1); err != nil {
		t.Fatal(err)
	}
	if info, changed, err := p.PullNow(ctx); err != nil || !changed || info.Version != 1 {
		t.Fatalf("rollback pull: info=%+v changed=%t err=%v", info, changed, err)
	}
	if gotInfo, raw := applied.get(); gotInfo.Version != 1 || !bytes.Equal(raw, models[0]) {
		t.Fatalf("applied after rollback: %+v", gotInfo)
	}
	if p.Version() != 1 {
		t.Fatalf("puller version = %d, want 1", p.Version())
	}
}

// TestPullerFailedApplyKeepsOldVersion proves a rejected Apply (e.g. the
// hot-swap failed) leaves the puller on its old version so the next poll
// retries the same download.
func TestPullerFailedApplyKeepsOldVersion(t *testing.T) {
	models := testModels(t)
	store, srv := newTestServer(t)
	if _, _, err := store.Publish(models[0], "", "test", ""); err != nil {
		t.Fatal(err)
	}

	fail := true
	p, err := NewPuller(PullerConfig{
		URL:   srv.URL,
		HTTP:  srv.Client(),
		Retry: retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Apply: func(info VersionInfo, raw []byte) error {
			if fail {
				return errors.New("swap refused")
			}
			return nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.PullNow(context.Background()); err == nil {
		t.Fatal("failed apply did not surface")
	}
	if p.Version() != 0 {
		t.Fatalf("failed apply advanced version to %d", p.Version())
	}
	// Next poll retries the same version and succeeds.
	fail = false
	if info, changed, err := p.PullNow(context.Background()); err != nil || !changed || info.Version != 1 {
		t.Fatalf("retry after failed apply: info=%+v changed=%t err=%v", info, changed, err)
	}
}

// TestPullerRidesOutFaultsAndRestarts drives the puller through a
// fault-injecting transport (drops, 503s, torn download bodies) and a
// simulated registry restart, asserting it converges on every published
// version anyway and that the applied bytes are always digest-intact.
func TestPullerRidesOutFaultsAndRestarts(t *testing.T) {
	models := testModels(t)
	dir := t.TempDir()
	store, _ := openTestStore(t, dir)
	if _, _, err := store.Publish(models[0], "", "test", ""); err != nil {
		t.Fatal(err)
	}

	// The handler indirects through an atomic pointer so the "registry
	// process" can restart (new Store over the same directory) without the
	// URL changing; nil means down (connection-level 502 from the stub).
	var handler atomic.Pointer[http.Handler]
	h := NewServer(store).Handler()
	handler.Store(&h)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ph := handler.Load()
		if ph == nil || *ph == nil {
			http.Error(w, "registry restarting", http.StatusServiceUnavailable)
			return
		}
		(*ph).ServeHTTP(w, r)
	}))
	defer srv.Close()

	faulty := faultfs.NewTransport(srv.Client().Transport, faultfs.HTTPConfig{
		Seed:            7,
		DropRate:        0.3,
		ServerErrorRate: 0.2,
		TruncateRate:    0.3,
		TruncateAfter:   128,
		RecoverAfter:    2,
	})
	p, applied := newTestPuller(t, srv.URL, &http.Client{Transport: faulty})
	ctx := context.Background()

	if info, changed, err := p.PullNow(ctx); err != nil || !changed || info.Version != 1 {
		t.Fatalf("pull through faults: info=%+v changed=%t err=%v", info, changed, err)
	}
	if _, raw := applied.get(); !bytes.Equal(raw, models[0]) {
		t.Fatal("applied bytes differ from published model despite digest verification")
	}

	// Restart the registry: down for a few polls, then a fresh Store over
	// the same directory with a new version published.
	handler.Store(nil)
	if _, changed, err := p.PullNow(ctx); err == nil && changed {
		t.Fatal("pull against a down registry applied something")
	}
	store2, _ := openTestStore(t, dir)
	if _, _, err := store2.Publish(models[1], "", "test", ""); err != nil {
		t.Fatal(err)
	}
	h2 := NewServer(store2).Handler()
	handler.Store(&h2)

	deadline := time.Now().Add(10 * time.Second)
	for {
		info, _, err := p.PullNow(ctx)
		if err == nil && info.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("puller did not converge after restart: info=%+v err=%v", info, err)
		}
	}
	if gotInfo, raw := applied.get(); gotInfo.Version != 2 || !bytes.Equal(raw, models[1]) {
		t.Fatalf("applied after restart: %+v", gotInfo)
	}
	if faulty.Faults() == 0 {
		t.Fatal("fault transport injected nothing; test proved nothing")
	}
	t.Logf("rode out %d injected faults (%d drops, %d 503s, %d truncations)",
		faulty.Faults(), faulty.Drops(), faulty.ServerErrors(), faulty.Truncates())
}

// TestPullerRejectsMalformedDigestHeader: the digest header is outside
// input. A value that is not 64 lowercase hex digits (short, missing,
// uppercase, non-hex) fails the round as a transient error, is retried
// like a digest mismatch, applies nothing, and never panics.
func TestPullerRejectsMalformedDigestHeader(t *testing.T) {
	body := []byte("model bytes")
	sum := shaHex(body)
	for _, header := range []string{"abc", "", strings.ToUpper(sum), strings.Repeat("z", 64), sum + "0"} {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.Header().Set(HeaderSHA256, header)
			w.Header().Set(HeaderVersion, "1")
			w.Write(body)
		}))
		applied := false
		p, err := NewPuller(PullerConfig{
			URL:   srv.URL,
			HTTP:  srv.Client(),
			Retry: retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
			Apply: func(VersionInfo, []byte) error { applied = true; return nil },
			Logf:  t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, changed, err := p.PullNow(context.Background())
		srv.Close()
		if err == nil || changed || applied {
			t.Errorf("header %q: changed=%t applied=%t err=%v, want a failed round", header, changed, applied, err)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("header %q: %d attempts, want 3 (transient, retried)", header, got)
		}
	}
}

// TestPullerRunLoop exercises the background loop end to end: start with
// an empty registry, publish mid-flight, and wait for convergence.
func TestPullerRunLoop(t *testing.T) {
	models := testModels(t)
	store, srv := newTestServer(t)
	p, applied := newTestPuller(t, srv.URL, srv.Client())
	p.cfg.Poll = 10 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	if _, _, err := store.Publish(models[0], "", "test", ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if info, _ := applied.get(); info.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run loop did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run loop exit: %v", err)
	}
}

// TestPublishClient exercises the producer-side helper against real and
// faulty transports.
func TestPublishClient(t *testing.T) {
	models := testModels(t)
	_, srv := newTestServer(t)
	pub := PublishOptions{
		Client: srv.Client(),
		Retry:  retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}

	res, err := PublishModel(context.Background(), srv.URL, models[0], "fp-1", "test", pub)
	if err != nil || res.Status != "accepted" || res.Version != 1 {
		t.Fatalf("publish: %+v err=%v", res, err)
	}
	// Idempotent retry: same bytes acknowledged as duplicate.
	res, err = PublishModel(context.Background(), srv.URL, models[0], "fp-1", "test", pub)
	if err != nil || res.Status != "duplicate" || res.Version != 1 {
		t.Fatalf("re-publish: %+v err=%v", res, err)
	}
	// Conflict is permanent: no retry storm, a clear error.
	if _, err = PublishModel(context.Background(), srv.URL, models[1], "fp-1", "test", pub); err == nil {
		t.Fatal("conflicting publish succeeded")
	}

	// Through a dropping transport the publish still lands exactly once.
	faulty := faultfs.NewTransport(srv.Client().Transport, faultfs.HTTPConfig{
		Seed:     11,
		DropRate: 0.5,
	})
	pub.Client = &http.Client{Transport: faulty}
	res, err = PublishModel(context.Background(), srv.URL, models[1], "fp-2", "test", pub)
	if err != nil || res.Version != 2 {
		t.Fatalf("faulty publish: %+v err=%v", res, err)
	}
}

// TestPullerHonorsRetryAfterFloor: a 503 carrying Retry-After must pace
// the next attempt at least that far out, even when the policy's own
// backoff would come back sooner.
func TestPullerHonorsRetryAfterFloor(t *testing.T) {
	var calls atomic.Int64
	var gaps []time.Duration
	var last time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, now.Sub(last))
		}
		last = now
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer srv.Close()

	p, _ := NewPuller(PullerConfig{
		URL:  srv.URL,
		HTTP: srv.Client(),
		Retry: retry.Policy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
		Apply: func(VersionInfo, []byte) error { return nil },
		Logf:  t.Logf,
	})
	if _, changed, err := p.PullNow(context.Background()); err != nil || changed {
		t.Fatalf("PullNow: changed=%t err=%v", changed, err)
	}
	if len(gaps) != 2 {
		t.Fatalf("attempts = %d, want 3 (two 503s then 404)", calls.Load())
	}
	for i, g := range gaps {
		if g < time.Second {
			t.Errorf("gap %d after 503 = %v, want >= the 1s Retry-After floor", i, g)
		}
	}
}

// TestPullerBreakerCollapsesRetryLoop: with the breaker open, a poll round
// costs the registry zero requests and fails fast with ErrBreakerOpen.
func TestPullerBreakerCollapsesRetryLoop(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	clock := time.Unix(1_700_000_000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Name:                "registry_pull",
		ConsecutiveFailures: 3,
		OpenTimeout:         10 * time.Second,
		Clock:               now,
	})
	p, _ := NewPuller(PullerConfig{
		URL:  srv.URL,
		HTTP: srv.Client(),
		Retry: retry.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    time.Millisecond,
		},
		Breaker: br,
		Apply:   func(VersionInfo, []byte) error { return nil },
		Logf:    t.Logf,
	})
	// First round: three 503s trip the breaker.
	if _, _, err := p.PullNow(context.Background()); err == nil {
		t.Fatal("first round must fail")
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("upstream requests in round 1 = %d, want 3", got)
	}
	if br.State() != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", br.State())
	}
	// Second round: breaker open, zero upstream requests, fast failure.
	_, _, err := p.PullNow(context.Background())
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("open-breaker round error = %v, want ErrBreakerOpen", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("upstream requests after open-breaker round = %d, want still 3", got)
	}
	// Heal the upstream and elapse the open window: the probe closes it.
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
	})
	clockMu.Lock()
	clock = clock.Add(11 * time.Second)
	clockMu.Unlock()
	if _, changed, err := p.PullNow(context.Background()); err != nil || changed {
		t.Fatalf("post-heal round: changed=%t err=%v", changed, err)
	}
	if br.State() != resilience.BreakerClosed {
		t.Fatalf("breaker state after heal = %v, want closed", br.State())
	}
}

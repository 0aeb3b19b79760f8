package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/observe"
	"repro/internal/retry"
)

// clientHit is one request as the peer saw it.
type clientHit struct {
	at     time.Time
	header http.Header
	body   string
}

// clientRun is what one TestClientDo row observes after the call.
type clientRun struct {
	err     error
	breaker *Breaker
	hits    []clientHit
	drops   uint64
}

// TestClientDo drives the one outbound call against a live peer, one row
// per behaviour the registry puller, the publish client and the distbuild
// worker rely on. Every call POSTs the same payload under a 30s deadline
// and a remote trace parent; the handler decodes {"ok":true} on 200,
// treats a torn body as transient and any other answer as definitive.
func TestClientDo(t *testing.T) {
	const traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const payload = "shard bytes that must resend from byte zero"
	for _, tc := range []struct {
		name string
		// breaker puts the breaker (trips after 3 failures, 10s open
		// window) in its starting state; nil leaves it closed and clean.
		breaker func(t *testing.T, b *Breaker, clk *fakeClock)
		// drop routes every request through a transport that drops it.
		drop bool
		// serve answers the n-th (0-based) request; cancel cancels the
		// call's context.
		serve func(n int, w http.ResponseWriter, r *http.Request, cancel context.CancelFunc)
		check func(t *testing.T, run clientRun)
	}{
		{
			name: "dropped transport is retried and counts as a breaker failure",
			drop: true,
			check: func(t *testing.T, run clientRun) {
				if run.err == nil || run.drops != 3 || len(run.hits) != 0 {
					t.Fatalf("err=%v drops=%d hits=%d, want an error after 3 dropped attempts", run.err, run.drops, len(run.hits))
				}
				if s := run.breaker.State(); s != BreakerOpen {
					t.Fatalf("breaker %v after 3 drops, want open", s)
				}
			},
		},
		{
			name: "503 with Retry-After delays the next attempt",
			serve: func(n int, w http.ResponseWriter, r *http.Request, _ context.CancelFunc) {
				if n == 0 {
					w.Header().Set("Retry-After", "1")
					WriteError(w, r, http.StatusServiceUnavailable, "busy")
					return
				}
				WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
			},
			check: func(t *testing.T, run clientRun) {
				if run.err != nil || len(run.hits) != 2 {
					t.Fatalf("err=%v hits=%d, want success on the second attempt", run.err, len(run.hits))
				}
				if gap := run.hits[1].at.Sub(run.hits[0].at); gap < time.Second {
					t.Fatalf("retry came %v after the 503, want >= the 1s Retry-After", gap)
				}
			},
		},
		{
			name: "409 is one definitive attempt and keeps the breaker closed",
			breaker: func(t *testing.T, b *Breaker, _ *fakeClock) {
				failN(t, b, 2) // one more failure would trip it
			},
			serve: func(_ int, w http.ResponseWriter, r *http.Request, _ context.CancelFunc) {
				WriteError(w, r, http.StatusConflict, "different bytes for this fingerprint")
			},
			check: func(t *testing.T, run clientRun) {
				if len(run.hits) != 1 {
					t.Fatalf("hits=%d, want exactly one attempt", len(run.hits))
				}
				if run.err == nil || !strings.Contains(run.err.Error(), "peer answered 409: different bytes for this fingerprint") {
					t.Fatalf("err=%v, want the server's 409 text", run.err)
				}
				if s := run.breaker.State(); s != BreakerClosed {
					t.Fatalf("breaker %v after a 409, want closed", s)
				}
			},
		},
		{
			name: "torn 200 is retried with identical request bytes",
			serve: func(n int, w http.ResponseWriter, r *http.Request, _ context.CancelFunc) {
				w.WriteHeader(http.StatusOK)
				if n == 0 {
					io.WriteString(w, `{"ok":`)
					return
				}
				io.WriteString(w, `{"ok":true}`)
			},
			check: func(t *testing.T, run clientRun) {
				if run.err != nil || len(run.hits) != 2 {
					t.Fatalf("err=%v hits=%d, want success on the second attempt", run.err, len(run.hits))
				}
				for i, h := range run.hits {
					if h.body != payload {
						t.Fatalf("attempt %d sent %q, want %q", i, h.body, payload)
					}
				}
			},
		},
		{
			name: "open breaker rejects without reaching the peer",
			breaker: func(t *testing.T, b *Breaker, _ *fakeClock) {
				failN(t, b, 3)
			},
			check: func(t *testing.T, run clientRun) {
				if !errors.Is(run.err, ErrBreakerOpen) || len(run.hits) != 0 {
					t.Fatalf("err=%v hits=%d, want ErrBreakerOpen and zero hits", run.err, len(run.hits))
				}
			},
		},
		{
			name: "cancelled context re-arms a half-open probe",
			breaker: func(t *testing.T, b *Breaker, clk *fakeClock) {
				failN(t, b, 3)
				clk.Advance(11 * time.Second)
			},
			serve: func(_ int, _ http.ResponseWriter, r *http.Request, cancel context.CancelFunc) {
				cancel()
				<-r.Context().Done()
			},
			check: func(t *testing.T, run clientRun) {
				if !errors.Is(run.err, context.Canceled) || len(run.hits) != 1 {
					t.Fatalf("err=%v hits=%d, want context.Canceled after the probe reached the peer", run.err, len(run.hits))
				}
				if s := run.breaker.State(); s != BreakerHalfOpen {
					t.Fatalf("breaker %v, want still half-open", s)
				}
				if err := run.breaker.Allow(); err != nil {
					t.Fatalf("next probe rejected: %v", err)
				}
			},
		},
		{
			name: "traceparent and deadline reach the wire",
			serve: func(_ int, w http.ResponseWriter, _ *http.Request, _ context.CancelFunc) {
				WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
			},
			check: func(t *testing.T, run clientRun) {
				if run.err != nil || len(run.hits) != 1 {
					t.Fatalf("err=%v hits=%d, want one successful attempt", run.err, len(run.hits))
				}
				h := run.hits[0].header
				if got := h.Get(observe.HeaderTraceparent); got != traceparent {
					t.Errorf("traceparent on the wire = %q, want %q", got, traceparent)
				}
				if d, ok := ParseDeadline(h); !ok || d <= 0 || d > 30*time.Second {
					t.Errorf("%s on the wire = %q, want a budget within the 30s deadline", HeaderDeadline, h.Get(HeaderDeadline))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sc, _ := observe.ParseTraceparent(traceparent)
			ctx = observe.ContextWithRemoteParent(ctx, sc)

			var mu sync.Mutex
			var hits []clientHit
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				mu.Lock()
				n := len(hits)
				hits = append(hits, clientHit{at: time.Now(), header: r.Header.Clone(), body: string(body)})
				mu.Unlock()
				tc.serve(n, w, r, cancel)
			}))
			defer srv.Close()

			clk := newFakeClock()
			b := NewBreaker(BreakerConfig{ConsecutiveFailures: 3, OpenTimeout: 10 * time.Second, Clock: clk.Now})
			if tc.breaker != nil {
				tc.breaker(t, b, clk)
			}
			hc := srv.Client()
			var ft *faultfs.Transport
			if tc.drop {
				ft = faultfs.NewTransport(hc.Transport, faultfs.HTTPConfig{Seed: 1, DropRate: 1, RecoverAfter: 3})
				hc = &http.Client{Transport: ft}
			}
			c := Client{
				HTTP:    hc,
				Retry:   retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
				Breaker: b,
				Peer:    "peer",
			}
			err := c.Do(ctx, 1<<10, func(actx context.Context) (*http.Request, error) {
				return http.NewRequestWithContext(actx, http.MethodPost, srv.URL, bytes.NewReader([]byte(payload)))
			}, func(resp *http.Response, body []byte) error {
				if resp.StatusCode != http.StatusOK {
					return c.Refusal(resp.StatusCode, body)
				}
				var v struct {
					OK bool `json:"ok"`
				}
				if err := json.Unmarshal(body, &v); err != nil {
					return retry.Transient(err)
				}
				return nil
			})
			srv.Close() // waits out in-flight handlers before hits is read
			run := clientRun{err: err, breaker: b, hits: hits}
			if ft != nil {
				run.drops = ft.Drops()
			}
			tc.check(t, run)
		})
	}
}

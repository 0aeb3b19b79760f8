package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/distbuild"
	"repro/internal/faultfs"
	"repro/internal/observe"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/retry"
	"repro/internal/service"
)

// TestStackPerMode runs the shared hardened stack with each HTTP mode's
// tier and route rules, one admission slot, and that slot held: probes and
// the scrape still answer, critical routes still get through, everything
// else is shed with a labelled, attributable 429, and a panic behind the
// stack is a JSON 500.
func TestStackPerMode(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tier     func(*http.Request) resilience.Tier
		route    func(*http.Request) string
		critical []string // paths admitted past the held slot
		shed     string   // a path shed while the slot is held
	}{
		{"serve", service.Tier, service.RouteLabel, []string{"/v1/admin/reload"}, "/v1/check-column"},
		{"registry", registry.Tier, registry.RouteLabel, []string{registry.PathPin}, registry.PathModels},
		{"coordinator", nil, distbuild.RouteLabel, nil, distbuild.PathLease},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered := make(chan struct{})
			release := make(chan struct{})
			api := http.NewServeMux()
			api.HandleFunc("/hold", func(w http.ResponseWriter, r *http.Request) {
				entered <- struct{}{}
				<-release
			})
			api.Handle("/panic", faultfs.PanicHandler("handler exploded"))
			for _, p := range tc.critical {
				api.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {})
			}
			reg := observe.NewRegistry()
			srv := httptest.NewServer(resilience.Stack(api, resilience.StackConfig{
				Tier:           tc.tier,
				Route:          tc.route,
				MaxInFlight:    1,
				RequestTimeout: 5 * time.Second,
				MaxBodyBytes:   1 << 20,
				Metrics:        reg,
			}))
			defer srv.Close()
			do := func(method, path string) *http.Response {
				t.Helper()
				req, err := http.NewRequest(method, srv.URL+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { resp.Body.Close() })
				return resp
			}

			held := make(chan int, 1)
			go func() {
				resp, err := http.Get(srv.URL + "/hold")
				if err != nil {
					held <- 0
					return
				}
				resp.Body.Close()
				held <- resp.StatusCode
			}()
			<-entered // the one admission slot is now taken

			for _, p := range []string{"/v1/livez", "/metrics"} {
				if resp := do("GET", p); resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s under a held slot = %d, want 200", p, resp.StatusCode)
				}
			}
			for _, p := range tc.critical {
				if resp := do("POST", p); resp.StatusCode != http.StatusOK {
					t.Errorf("critical POST %s under a held slot = %d, want 200", p, resp.StatusCode)
				}
			}
			resp := do("POST", tc.shed)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("POST %s under a held slot = %d, want 429", tc.shed, resp.StatusCode)
			}
			if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(resilience.DefaultRetryAfterSeconds); got != want {
				t.Errorf("429 Retry-After = %q, want %q", got, want)
			}
			if resp.Header.Get(resilience.HeaderRequestID) == "" {
				t.Error("429 carries no X-Request-Id")
			}
			close(release)
			if code := <-held; code != http.StatusOK {
				t.Fatalf("held request = %d, want 200", code)
			}

			resp = do("GET", "/panic")
			var body struct {
				Error     string `json:"error"`
				RequestID string `json:"request_id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("panic response is not JSON: %v", err)
			}
			if resp.StatusCode != http.StatusInternalServerError || body.RequestID == "" ||
				body.RequestID != resp.Header.Get(resilience.HeaderRequestID) {
				t.Errorf("panic = %d %+v, want a 500 carrying the response's request ID", resp.StatusCode, body)
			}
			do("GET", "/no/such/path")

			scrape := do("GET", "/metrics")
			raw, err := io.ReadAll(scrape.Body)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				`autodetect_http_requests_total{route="` + tc.shed + `",code="429"} 1`,
				`autodetect_http_requests_total{route="other",code="500"} 1`,
				`autodetect_http_requests_total{route="other",code="404"} 1`,
			} {
				if !strings.Contains(string(raw), want) {
					t.Errorf("/metrics lacks %s", want)
				}
			}
		})
	}
}

// TestGuardSeedsJitter: every guarded policy gets its own non-zero jitter
// seed, so two daemons retrying against one dependency do not back off on
// the same schedule.
func TestGuardSeedsJitter(t *testing.T) {
	_, a := guard("a", observe.NewRegistry(), nil, retry.Policy{})
	_, b := guard("b", observe.NewRegistry(), nil, retry.Policy{})
	if a.Seed == 0 || b.Seed == 0 || a.Seed == b.Seed {
		t.Fatalf("seeds %#x and %#x, want two different non-zero seeds", a.Seed, b.Seed)
	}
}

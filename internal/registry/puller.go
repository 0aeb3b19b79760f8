package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/observe"
	"repro/internal/resilience"
	"repro/internal/retry"
)

// DefaultPoll is the fleet polling cadence when PullerConfig.Poll is zero.
const DefaultPoll = 5 * time.Second

// errNoModel marks a poll against a registry that has nothing published
// yet — not a failure, just "check back later".
var errNoModel = errors.New("registry: no model published yet")

// PullerConfig configures NewPuller.
type PullerConfig struct {
	// URL is the registry base URL, e.g. "http://registry:8080". Required.
	URL string
	// Poll is the conditional-poll cadence (default DefaultPoll).
	Poll time.Duration
	// HTTP issues the registry calls (default http.DefaultClient). Tests
	// inject fault-injecting transports here.
	HTTP *http.Client
	// Retry shapes each poll round. Zero-value fields take the retry
	// package defaults; AttemptTimeout additionally defaults to
	// resilience.DefaultAttemptTimeout so one hung download is abandoned
	// and restarted. Retry.Budget, when set, bounds retry amplification.
	Retry retry.Policy
	// Breaker, when set, guards the registry dependency: every attempt asks
	// Allow first, and an open breaker aborts the whole poll round with one
	// cheap ErrBreakerOpen instead of a storm of doomed requests.
	Breaker *resilience.Breaker
	// Apply receives each newly pulled version's digest-verified bytes.
	// Returning an error keeps the puller on its old version; the same
	// version is retried on the next poll. Required.
	Apply func(info VersionInfo, raw []byte) error
	// Logf, when set, receives one line per puller event (nil discards).
	Logf func(format string, args ...any)
	// Metrics, when set, receives the replica-side
	// autodetect_registry_client_* families.
	Metrics *observe.Registry
	// Tracer, when set, records one "model_hot_swap" span per applied
	// version in the replica's flight recorder. When the registry echoes
	// the traceparent persisted at publish time, the span joins that trace
	// — the hot-swap becomes a descendant of the build that produced the
	// model, observable end to end via /debug/traces.
	Tracer *observe.Tracer
}

// Puller keeps one replica converged on the registry's pinned version: it
// conditionally polls GET /registry/v1/models/current (unchanged polls are
// 304s with no body), downloads on change under the retry policy, verifies
// the SHA-256 digest against the response header, and hands the bytes to
// Apply. Registry restarts and 503s are ridden out: a failed round is
// logged and the next tick tries again, forever.
type Puller struct {
	cfg  PullerConfig
	call resilience.Client
	logf func(format string, args ...any)
	met  *pullerMetrics

	// mu serializes poll rounds: the Run loop and a forced PullNow from
	// the admin-reload path may race, and Apply must never run twice
	// concurrently. etag is the validator of the last applied version;
	// version mirrors it for logging.
	mu      sync.Mutex
	etag    string
	version int
}

// NewPuller validates cfg and returns a puller; call Run to start polling.
func NewPuller(cfg PullerConfig) (*Puller, error) {
	if cfg.URL == "" {
		return nil, errors.New("registry: PullerConfig.URL is required")
	}
	if cfg.Apply == nil {
		return nil, errors.New("registry: PullerConfig.Apply is required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	p := &Puller{
		cfg:  cfg,
		call: resilience.Client{HTTP: cfg.HTTP, Retry: cfg.Retry, Breaker: cfg.Breaker, Peer: "registry"},
		logf: cfg.Logf,
		met:  newPullerMetrics(cfg.Metrics),
	}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	return p, nil
}

// Version reports the last applied registry version (0 before the first
// successful pull).
func (p *Puller) Version() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// Run polls until ctx ends. Every failure is absorbed: the registry being
// down, restarting, or serving 503s delays convergence, never kills the
// replica. Returns ctx.Err().
func (p *Puller) Run(ctx context.Context) error {
	tick := time.NewTicker(p.cfg.Poll)
	defer tick.Stop()
	for {
		if _, _, err := p.PullNow(ctx); err != nil && ctx.Err() == nil {
			p.met.errors.Inc()
			p.logf("registry puller: poll failed, retrying next tick: %v", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// PullNow performs one poll round immediately (also the force-pull behind
// /v1/admin/reload when the daemon serves from a registry). It reports the
// applied version and changed=true when a new version was downloaded and
// applied; changed=false means the registry confirmed the current version
// is still what this replica serves (or has nothing published yet).
func (p *Puller) PullNow(ctx context.Context) (VersionInfo, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var info VersionInfo
	var raw []byte
	changed := false
	start := time.Now()
	newRequest := func(actx context.Context) (*http.Request, error) {
		p.met.polls.Inc()
		req, err := http.NewRequestWithContext(actx, http.MethodGet,
			p.cfg.URL+PathModels+"/current", nil)
		if err == nil && p.etag != "" {
			req.Header.Set("If-None-Match", p.etag)
		}
		return req, err
	}
	err := p.call.Do(ctx, maxModelBytes, newRequest, func(resp *http.Response, body []byte) error {
		switch resp.StatusCode {
		case http.StatusNotModified:
			p.met.notModified.Inc()
			return nil
		case http.StatusOK:
			// The header is outside input: check its shape before it is
			// compared, stored or sliced.
			want := resp.Header.Get(HeaderSHA256)
			if !isSHA256Hex(want) {
				return retry.Transient(fmt.Errorf(
					"registry: %s header is not a lowercase hex sha256 (%d bytes)", HeaderSHA256, len(want)))
			}
			if got := shaHex(body); got != want {
				// A torn body that slipped past Content-Length, or a proxy
				// mangled the payload: re-download.
				return retry.Transient(fmt.Errorf(
					"registry: downloaded bytes hash to %s, registry says %s", got[:12], want[:12]))
			}
			v, verr := strconv.Atoi(resp.Header.Get(HeaderVersion))
			if verr != nil || v < 1 {
				return fmt.Errorf("registry: bad %s header %q", HeaderVersion, resp.Header.Get(HeaderVersion))
			}
			published, _ := strconv.ParseInt(resp.Header.Get(HeaderPublished), 10, 64)
			info = VersionInfo{
				Version:         v,
				SHA256:          want,
				Bytes:           int64(len(body)),
				Source:          resp.Header.Get(HeaderSource),
				PublishedUnixMs: published,
			}
			if sc, ok := observe.ParseTraceparent(resp.Header.Get(HeaderTraceparent)); ok {
				info.Traceparent = sc.Traceparent()
			}
			raw = body
			changed = true
			return nil
		case http.StatusNotFound:
			return errNoModel
		default:
			return p.call.Refusal(resp.StatusCode, body)
		}
	})
	if errors.Is(err, errNoModel) {
		// Nothing published yet: quietly poll again next tick.
		return VersionInfo{}, false, nil
	}
	if err != nil {
		return VersionInfo{}, false, err
	}
	if !changed {
		return VersionInfo{Version: p.version}, false, nil
	}
	if err := p.apply(ctx, info, raw); err != nil {
		return VersionInfo{}, false, fmt.Errorf("registry: applying v%d: %w", info.Version, err)
	}
	p.etag = `"` + info.SHA256 + `"`
	prev := p.version
	p.version = info.Version
	p.met.pulls.Inc()
	p.met.pullSeconds.Observe(time.Since(start).Seconds())
	p.logf("registry puller: applied v%d (%d bytes, sha %s, was v%d)",
		info.Version, info.Bytes, info.SHA256[:12], prev)
	return info, true, nil
}

// apply hands a downloaded version to cfg.Apply, wrapped in a
// "model_hot_swap" recorder span when a tracer is configured. The span
// joins the version's persisted publish trace (echoed by the registry in
// HeaderTraceparent) as a remote parent, so the replica's swap shows up on
// the producing build's timeline.
func (p *Puller) apply(ctx context.Context, info VersionInfo, raw []byte) error {
	if p.cfg.Tracer == nil {
		return p.cfg.Apply(info, raw)
	}
	ctx = observe.ContextWithTracer(ctx, p.cfg.Tracer)
	if sc, ok := observe.ParseTraceparent(info.Traceparent); ok {
		ctx = observe.ContextWithRemoteParent(ctx, sc)
	}
	sctx, end := observe.RecorderSpan(ctx, "model_hot_swap")
	defer end()
	observe.SetSpanAttr(sctx, "version", strconv.Itoa(info.Version))
	observe.SetSpanAttr(sctx, "sha256", info.SHA256[:12])
	if err := p.cfg.Apply(info, raw); err != nil {
		observe.SetSpanError(sctx, err.Error())
		return err
	}
	return nil
}

// PublishResult is what PublishModel reports back to the producer.
type PublishResult struct {
	Status  string `json:"status"` // "accepted" or "duplicate"
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
	Bytes   int64  `json:"bytes"`
	Current int    `json:"current"`
}

// PublishOptions shapes PublishModel.
type PublishOptions struct {
	// Client issues the upload (default http.DefaultClient).
	Client *http.Client
	// Retry shapes the upload attempts; AttemptTimeout defaults to
	// resilience.DefaultAttemptTimeout. Retry.Budget, when set, bounds
	// retry amplification.
	Retry retry.Policy
	// Breaker, when set, guards the registry: an open breaker fails the
	// publish fast with ErrBreakerOpen instead of burning attempts against
	// a dead upstream (the coordinator's finalize step keeps the artifacts
	// and can re-publish once it closes).
	Breaker *resilience.Breaker
}

// PublishModel uploads model bytes to a registry — the producer-side
// client used by the distbuild coordinator's finalize step. Transport
// failures, 429s, and 5xx answers are retried with any Retry-After hint
// honored as a backoff floor (publish is idempotent: a retry of a landed
// upload is acknowledged as a duplicate); a 409 conflict is permanent.
func PublishModel(ctx context.Context, baseURL string, raw []byte, fingerprint, source string, opts PublishOptions) (PublishResult, error) {
	call := resilience.Client{HTTP: opts.Client, Retry: opts.Retry, Breaker: opts.Breaker, Peer: "registry"}
	target := baseURL + PathModels + "?fingerprint=" + url.QueryEscape(fingerprint) + "&source=" + url.QueryEscape(source)
	var res PublishResult
	err := call.Do(ctx, 1<<20, func(actx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, target, bytes.NewReader(raw))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		return req, err
	}, func(resp *http.Response, body []byte) error {
		if resp.StatusCode != http.StatusOK {
			return call.Refusal(resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &res); err != nil {
			// Torn response to a landed upload: re-ask, the registry
			// answers "duplicate".
			return retry.Transient(fmt.Errorf("registry: bad publish response: %w", err))
		}
		return nil
	})
	return res, err
}

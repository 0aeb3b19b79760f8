// Package service exposes a trained Auto-Detect model over HTTP — the
// "spell-checker for data" deployment the paper targets (error detection
// as an always-on background service; Appendix G discusses the background
// execution mode). The API is JSON over these endpoints:
//
//	GET  /v1/health        → model summary
//	GET  /v1/livez         → liveness probe (process is up)
//	GET  /v1/readyz        → readiness probe (a model is loaded)
//	POST /v1/check-column  → findings for one column
//	POST /v1/check-table   → findings for every column of a table
//	POST /v1/check-pair    → verdict for a single value pair
//	POST /v1/admin/reload  → hot-swap the model (when a Reload hook is set)
//
// When the Jobs field carries a batch manager, the asynchronous audit API
// is mounted too (see jobs_http.go): POST /v1/jobs submits a whole-table
// audit that runs in the background, survives restarts, and pages its
// findings through GET /v1/jobs/{id}/results.
//
// Every request flows through the internal/resilience hardening chain
// (resilience.Stack): request-ID injection, panic recovery, tiered load
// shedding (429 + Retry-After past MaxInFlight), a propagated per-request
// deadline, and a body-size cap. The probe endpoints bypass the limiter
// and deadline so orchestrators can still see a live process under
// overload.
//
// The model is held behind an atomic pointer: reloads swap the detector
// and semantic model together, and every request snapshots the pair once,
// so in-flight requests always score against one consistent model and
// never observe a partial swap.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/observe"
	"repro/internal/resilience"
	"repro/internal/semantic"
)

// ModelInfo records where the served model came from — file path reload,
// in-process training, or a registry pull — so health responses, reload
// logs, and the model_version gauge can say which version a replica runs.
// The zero value means "provenance unknown" and is always valid.
type ModelInfo struct {
	// Version is the registry version number (0 when not registry-sourced).
	Version int `json:"version,omitempty"`
	// Source names the provenance: "file", "train-dir", "synthetic",
	// "registry", ...
	Source string `json:"source,omitempty"`
	// SHA256 is the hex digest of the serialized model bytes, when known.
	SHA256 string `json:"sha256,omitempty"`
	// PublishedUnixMs is when this model was published/built, when known;
	// the model_age_seconds gauge derives from it.
	PublishedUnixMs int64 `json:"published_unix_ms,omitempty"`
}

// model pairs the pattern detector with the optional value-level semantic
// model so both swap atomically on reload, plus the provenance of the pair.
type model struct {
	det    *core.Detector
	sem    *semantic.Model
	info   ModelInfo
	loaded time.Time
}

// Server serves error-detection requests from a trained detector and an
// optional value-level semantic model. Configure the exported limits
// before calling Handler; they are read once when the handler is built.
type Server struct {
	cur atomic.Pointer[model]
	obsState

	// MaxValues bounds the accepted column length (default 10000).
	MaxValues int
	// MaxTableValues bounds the total cell count of a /v1/check-table
	// request or a batch job submission (default 100000; <= 0 disables).
	MaxTableValues int
	// TableWorkers bounds the per-request column-scoring pool used by
	// /v1/check-table (default 4; <= 1 scores sequentially). Results are
	// identical to a sequential pass — columns are independent.
	TableWorkers int
	// MaxBodyBytes caps request bodies (default 8 MiB; <= 0 disables).
	MaxBodyBytes int64
	// MaxInFlight bounds concurrent requests; excess requests receive
	// 429 with Retry-After (default 256; <= 0 disables). It is the upper
	// bound of the tiered AIMD admission controller: under overload the
	// effective limit adapts downward toward LatencyTarget, shedding
	// background traffic (jobs) before interactive (check-*), and never
	// shedding admin calls.
	MaxInFlight int
	// LatencyTarget is the latency the admission controller adapts its
	// concurrency limit toward (default 250ms).
	LatencyTarget time.Duration
	// RequestTimeout bounds each request's wall-clock time (default 30s;
	// <= 0 disables). An inbound X-Deadline-Ms budget below it tightens
	// the bound further (deadline propagation).
	RequestTimeout time.Duration
	// DeadlineFloor, when > 0, fast-fails interactive check requests with
	// 504 when their propagated deadline budget is already below it —
	// doomed work is rejected before it starts (default 0: disabled).
	DeadlineFloor time.Duration
	// MaxModelStaleness, when > 0, makes /v1/readyz report
	// "degraded" (still 200 — the replica serves, staleness is a warning,
	// not an outage) once the served model's age exceeds it.
	MaxModelStaleness time.Duration
	// DegradedCheck, when set, contributes extra degradation reasons to
	// /v1/readyz (e.g. "registry_breaker_open" from the daemon's puller
	// breaker). Empty means healthy.
	DegradedCheck func() []string
	// Reload, when set, produces a replacement model plus its provenance
	// for ReloadNow (POST /v1/admin/reload and the daemon's SIGHUP
	// handler). A nil hook makes the endpoint answer 501.
	Reload func() (*core.Detector, *semantic.Model, ModelInfo, error)
	// Logger, when set, receives structured per-request access logs,
	// panic reports and reload outcomes with request-ID correlation.
	Logger *slog.Logger
	// Metrics is the registry behind GET /metrics. Read once at the first
	// Handler/Swap call; nil gets a private registry.
	Metrics *observe.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (outside the
	// load shedder, inside recovery). Off by default: profiles expose
	// memory contents.
	EnablePprof bool
	// Tracer, when set, opens a per-request server span in its flight
	// recorder, joins inbound traceparent headers, and stamps trace_id
	// into logs, exemplars and the X-Trace-Id response header. Nil
	// disables tracing entirely.
	Tracer *observe.Tracer
	// EnableTraceDebug mounts the flight-recorder viewer at GET
	// /debug/traces (requires Tracer). Off by default; disabled debug
	// surfaces answer 404 exactly like unknown paths.
	EnableTraceDebug bool
	// Jobs, when set, mounts the asynchronous batch-audit API under
	// /v1/jobs. Configure it before the first Handler call.
	Jobs *jobs.Manager
	// AllowDBAudit permits whole-database audit submissions (the database
	// variant of POST /v1/jobs). Off by default: a submitted DSN makes
	// the server dial out, so operators opt in explicitly (-db-audit).
	AllowDBAudit bool
}

// New returns a server; sem may be nil to disable value-level checks, and
// det may be nil to start not-ready (readyz answers 503 until Swap).
func New(det *core.Detector, sem *semantic.Model) *Server {
	return NewWithInfo(det, sem, ModelInfo{})
}

// NewWithInfo is New with the initial model's provenance attached, so the
// first /v1/health already reports where the model came from.
func NewWithInfo(det *core.Detector, sem *semantic.Model, info ModelInfo) *Server {
	s := &Server{
		MaxValues:      10000,
		MaxTableValues: 100000,
		TableWorkers:   4,
		MaxBodyBytes:   8 << 20,
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
	}
	if det != nil {
		s.cur.Store(&model{det: det, sem: sem, info: info, loaded: time.Now()})
	}
	return s
}

// Swap atomically replaces the served model. In-flight requests finish
// against whichever model they snapshotted; new requests see the new one.
func (s *Server) Swap(det *core.Detector, sem *semantic.Model) error {
	return s.SwapInfo(det, sem, ModelInfo{})
}

// SwapInfo is Swap with the replacement model's provenance attached; the
// registry puller swaps through here so the version gauge and health
// endpoint track the fleet's served version.
func (s *Server) SwapInfo(det *core.Detector, sem *semantic.Model, info ModelInfo) error {
	if det == nil {
		return errors.New("service: cannot swap in a nil detector")
	}
	s.cur.Store(&model{det: det, sem: sem, info: info, loaded: time.Now()})
	s.observability().swaps.Inc()
	s.syncModelGauges()
	return nil
}

// Info returns the served model's provenance (zero before the first load).
func (s *Server) Info() ModelInfo {
	if m := s.snapshot(); m != nil {
		return m.info
	}
	return ModelInfo{}
}

// snapshot returns the current model, or nil before the first Swap.
func (s *Server) snapshot() *model { return s.cur.Load() }

// Model returns the served (detector, semantic) snapshot, or nils before
// the first load. The batch-job executor snapshots through this hook so a
// whole job scores against one consistent model even across hot swaps.
func (s *Server) Model() (*core.Detector, *semantic.Model) {
	m := s.snapshot()
	if m == nil {
		return nil, nil
	}
	return m.det, m.sem
}

// Finding is one flagged cell. It is the shared internal/audit shape, so
// the synchronous endpoints and the batch-job results page serialize
// findings identically.
type Finding = audit.Finding

// columnRequest is the body of /v1/check-column.
type columnRequest struct {
	Values []string `json:"values"`
	// MinConfidence filters findings (default 0.5).
	MinConfidence float64 `json:"min_confidence"`
}

// columnResponse is the body of /v1/check-column responses.
type columnResponse struct {
	Findings []Finding `json:"findings"`
}

// tableRequest is the body of /v1/check-table.
type tableRequest struct {
	Columns       map[string][]string `json:"columns"`
	MinConfidence float64             `json:"min_confidence"`
}

// tableResponse maps column names to findings.
type tableResponse struct {
	Columns map[string][]Finding `json:"columns"`
}

// pairRequest is the body of /v1/check-pair.
type pairRequest struct {
	A string `json:"a"`
	B string `json:"b"`
}

// pairResponse is the body of /v1/check-pair responses.
type pairResponse struct {
	Incompatible bool    `json:"incompatible"`
	Confidence   float64 `json:"confidence"`
	ByLanguage   []struct {
		LanguageID int     `json:"language_id"`
		NPMI       float64 `json:"npmi"`
		Fires      bool    `json:"fires"`
		Precision  float64 `json:"precision"`
	} `json:"by_language"`
}

// healthResponse is the body of /v1/health and reload responses.
type healthResponse struct {
	Status    string `json:"status"`
	Languages int    `json:"languages"`
	Bytes     int    `json:"bytes"`
	Semantic  bool   `json:"semantic"`
	// Model provenance: registry version, source, and digest of the served
	// model, when known.
	Version int    `json:"version,omitempty"`
	Source  string `json:"source,omitempty"`
	SHA256  string `json:"sha256,omitempty"`
}

// Handler returns the HTTP handler with the hardening chain applied.
func (s *Server) Handler() http.Handler {
	obs := s.observability()

	api := http.NewServeMux()
	api.HandleFunc("/v1/health", s.handleHealth)
	api.HandleFunc("/v1/check-column", s.handleColumn)
	api.HandleFunc("/v1/check-table", s.handleTable)
	api.HandleFunc("/v1/check-pair", s.handlePair)
	api.HandleFunc("/v1/admin/reload", s.handleReload)
	// The batch endpoints are always routed; without a configured manager
	// they answer 501 so clients get a diagnosable error instead of 404.
	api.HandleFunc("/v1/jobs", s.handleJobs)
	api.HandleFunc("/v1/jobs/{id}", s.handleJob)
	api.HandleFunc("/v1/jobs/{id}/results", s.handleJobResults)

	return resilience.Stack(api, resilience.StackConfig{
		Tier:           Tier,
		DeadlineFloor:  s.deadlineFloor,
		Route:          RouteLabel,
		MaxInFlight:    s.MaxInFlight,
		LatencyTarget:  s.LatencyTarget,
		RequestTimeout: s.RequestTimeout,
		MaxBodyBytes:   s.MaxBodyBytes,
		Metrics:        obs.reg,
		Logger:         s.Logger,
		Tracer:         s.Tracer,
		Pprof:          s.EnablePprof,
		TraceDebug:     s.EnableTraceDebug,
		Unshed:         map[string]http.Handler{"/v1/readyz": http.HandlerFunc(s.handleReadyz)},
	})
}

// decodeJSON enforces method, content type, and the body cap, then decodes
// the request body into v. It writes the error response and returns false
// on any failure.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, r, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		resilience.WriteError(w, r, http.StatusUnsupportedMediaType, "Content-Type must be application/json")
		return false
	}
	if s.MaxBodyBytes > 0 {
		// Belt and braces: the resilience.MaxBytes middleware caps the
		// body too, but the handler must be safe even when mounted bare.
		r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			resilience.WriteError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		resilience.WriteError(w, r, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// ready writes a 503 and returns nil when no model is loaded yet.
func (s *Server) ready(w http.ResponseWriter, r *http.Request) *model {
	m := s.snapshot()
	if m == nil {
		resilience.WriteError(w, r, http.StatusServiceUnavailable, "no model loaded")
		return nil
	}
	return m
}

// Tier classifies API requests for the admission controller. The probes
// and /metrics never reach it (mounted outside the hardened chain); within
// the chain only the admin surface is critical — an operator diagnosing or
// reloading an overloaded replica must get through.
func Tier(r *http.Request) resilience.Tier {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/admin/"):
		return resilience.TierCritical
	case strings.HasPrefix(p, "/v1/jobs"):
		return resilience.TierBackground
	default:
		return resilience.TierInteractive
	}
}

// deadlineFloor is the per-route deadline floor for the DeadlineBudget
// middleware: interactive check requests below DeadlineFloor of remaining
// budget are doomed (the caller will give up before the answer lands) and
// fast-fail instead of occupying a scoring slot.
func (s *Server) deadlineFloor(r *http.Request) time.Duration {
	if strings.HasPrefix(r.URL.Path, "/v1/check-") {
		return s.DeadlineFloor
	}
	return 0
}

// readyzResponse is the body of /v1/readyz.
type readyzResponse struct {
	Status   string   `json:"status"`
	Degraded []string `json:"degraded,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	m := s.snapshot()
	if m == nil {
		resilience.WriteError(w, r, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	// Degraded-but-serving is still ready: a stale model or an open
	// registry breaker means convergence is impaired, not that this
	// replica should be pulled from rotation — yanking every replica the
	// moment the registry dies would turn a control-plane outage into a
	// data-plane one.
	var reasons []string
	if s.MaxModelStaleness > 0 && s.modelAge(m) > s.MaxModelStaleness {
		reasons = append(reasons, "model_stale")
	}
	if s.DegradedCheck != nil {
		reasons = append(reasons, s.DegradedCheck()...)
	}
	if len(reasons) > 0 {
		resilience.WriteJSON(w, http.StatusOK, readyzResponse{Status: "degraded", Degraded: reasons})
		return
	}
	resilience.WriteJSON(w, http.StatusOK, readyzResponse{Status: "ready"})
}

// modelAge mirrors the autodetect_model_age_seconds gauge: time since
// publish when known, since load otherwise.
func (s *Server) modelAge(m *model) time.Duration {
	if m.info.PublishedUnixMs > 0 {
		return time.Since(time.UnixMilli(m.info.PublishedUnixMs))
	}
	return time.Since(m.loaded)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, r, http.StatusMethodNotAllowed, "GET only")
		return
	}
	m := s.ready(w, r)
	if m == nil {
		return
	}
	resilience.WriteJSON(w, http.StatusOK, healthResponse{
		Status:    "ok",
		Languages: len(m.det.Languages()),
		Bytes:     m.det.Bytes(),
		Semantic:  m.sem != nil,
		Version:   m.info.Version,
		Source:    m.info.Source,
		SHA256:    m.info.SHA256,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	det, sem, info, err := s.ReloadNow("admin")
	switch {
	case errors.Is(err, ErrNoReload):
		resilience.WriteError(w, r, http.StatusNotImplemented, "no reload hook configured")
		return
	case err != nil:
		resilience.WriteError(w, r, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	resilience.WriteJSON(w, http.StatusOK, healthResponse{
		Status:    "reloaded",
		Languages: len(det.Languages()),
		Bytes:     det.Bytes(),
		Semantic:  sem != nil,
		Version:   info.Version,
		Source:    info.Source,
		SHA256:    info.SHA256,
	})
}

// ErrNoReload is ReloadNow's answer when no Reload hook is configured.
var ErrNoReload = errors.New("service: no reload hook configured")

// ReloadNow runs the Reload hook and atomically swaps its model in,
// keeping the current model on any failure. It is the one reload path:
// POST /v1/admin/reload and the daemon's SIGHUP handler both come through
// here, and trigger names which one in the outcome log line.
func (s *Server) ReloadNow(trigger string) (*core.Detector, *semantic.Model, ModelInfo, error) {
	if s.Reload == nil {
		return nil, nil, ModelInfo{}, ErrNoReload
	}
	det, sem, info, err := s.Reload()
	if err == nil {
		err = s.SwapInfo(det, sem, info)
	}
	if err != nil {
		if s.Logger != nil {
			s.Logger.Error("model reload failed, keeping current model", "trigger", trigger, "error", err)
		}
		return nil, nil, ModelInfo{}, err
	}
	if s.Logger != nil {
		s.Logger.Info("model reloaded", "trigger", trigger,
			"languages", len(det.Languages()), "model_bytes", det.Bytes(),
			"model_version", info.Version, "model_source", info.Source)
	}
	return det, sem, info, nil
}

// checkColumn scores one column through the shared audit helper — the
// same code path the batch-job executor runs, so synchronous and batch
// findings are identical for identical inputs.
func (m *model) checkColumn(ctx context.Context, values []string, minConf float64) []Finding {
	return audit.CheckColumn(ctx, m.det, m.sem, values, minConf)
}

func (s *Server) handleColumn(w http.ResponseWriter, r *http.Request) {
	m := s.ready(w, r)
	if m == nil {
		return
	}
	var req columnRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Values) == 0 {
		resilience.WriteError(w, r, http.StatusBadRequest, "values is empty")
		return
	}
	if len(req.Values) > s.MaxValues {
		resilience.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("at most %d values per column", s.MaxValues))
		return
	}
	ctx, end := observe.Span(r.Context(), "check_column")
	findings := m.checkColumn(ctx, req.Values, req.MinConfidence)
	end()
	resilience.WriteJSON(w, http.StatusOK, columnResponse{Findings: findings})
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	m := s.ready(w, r)
	if m == nil {
		return
	}
	var req tableRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Columns) == 0 {
		resilience.WriteError(w, r, http.StatusBadRequest, "columns is empty")
		return
	}
	total := 0
	for _, vs := range req.Columns {
		total += len(vs)
	}
	if s.MaxTableValues > 0 && total > s.MaxTableValues {
		resilience.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("table has %d values, at most %d per request", total, s.MaxTableValues))
		return
	}
	ctx, end := observe.Span(r.Context(), "check_table")
	resp := tableResponse{
		Columns: audit.CheckTable(ctx, m.det, m.sem, req.Columns, req.MinConfidence, s.TableWorkers),
	}
	end()
	resilience.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	m := s.ready(w, r)
	if m == nil {
		return
	}
	var req pairRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.A == "" || req.B == "" {
		resilience.WriteError(w, r, http.StatusBadRequest, "need both a and b")
		return
	}
	_, end := observe.Span(r.Context(), "check_pair")
	ps := m.det.ScorePair(req.A, req.B)
	end()
	resp := pairResponse{Incompatible: ps.Flagged, Confidence: ps.Confidence}
	for _, l := range ps.ByLanguage {
		resp.ByLanguage = append(resp.ByLanguage, struct {
			LanguageID int     `json:"language_id"`
			NPMI       float64 `json:"npmi"`
			Fires      bool    `json:"fires"`
			Precision  float64 `json:"precision"`
		}{l.LanguageID, l.NPMI, l.Fires, l.Precision})
	}
	resilience.WriteJSON(w, http.StatusOK, resp)
}

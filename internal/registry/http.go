package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/observe"
	"repro/internal/resilience"
)

// Server is the registry's HTTP surface over a Store. Mount Handler on any
// mux; autodetectd wraps it in the standard resilience chain.
type Server struct {
	store *Store
}

// NewServer wraps store for HTTP serving.
func NewServer(store *Store) *Server { return &Server{store: store} }

// Handler routes the registry API:
//
//	POST /registry/v1/models            publish (idempotent)
//	GET  /registry/v1/models            list versions + current pointer
//	GET  /registry/v1/models/{version}  fetch; {version} is an integer or
//	                                    "current"; honors If-None-Match
//	POST /registry/v1/pin               pin / rollback / unpin-to-latest
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathModels, s.handlePublish)
	mux.HandleFunc("GET "+PathModels, s.handleList)
	mux.HandleFunc("GET "+PathModels+"/{version}", s.handleGet)
	mux.HandleFunc("POST "+PathPin, s.handlePin)
	return mux
}

// RouteLabel bounds the route label cardinality of the registry server's
// HTTP metrics; version numbers collapse into one label.
func RouteLabel(r *http.Request) string {
	switch {
	case r.URL.Path == PathModels || r.URL.Path == PathPin || r.URL.Path == "/metrics" || r.URL.Path == "/v1/livez":
		return r.URL.Path
	case strings.HasPrefix(r.URL.Path, PathModels+"/"):
		return PathModels + "/{version}"
	default:
		return "other"
	}
}

// Tier classifies registry requests for admission. The traffic is
// fleet-internal: pulls and publishes retry under budgets, so they are
// background and shed first; the pin surface (an operator rolling back a
// bad model) is critical and never shed.
func Tier(r *http.Request) resilience.Tier {
	if strings.HasPrefix(r.URL.Path, PathPin) {
		return resilience.TierCritical
	}
	return resilience.TierBackground
}

// writeRetryable is the 503 + Retry-After shape shared with distbuild: the
// condition is expected to clear, the client should retry.
func writeRetryable(w http.ResponseWriter, r *http.Request, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(resilience.DefaultRetryAfterSeconds))
	resilience.WriteError(w, r, http.StatusServiceUnavailable, msg)
}

// publishResponse is the body of publish and pin responses.
type publishResponse struct {
	Status  string `json:"status"` // "accepted", "duplicate", "pinned"
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
	Bytes   int64  `json:"bytes"`
	Current int    `json:"current"`
	// Rollback is set on pin responses that moved current backwards.
	Rollback bool `json:"rollback,omitempty"`
}

// handlePublish ingests model bytes. The decision ladder mirrors the
// distbuild shard upload:
//
//	body read died mid-flight      → 503 + Retry-After (re-upload)
//	bytes fail model validation    → 503 + Retry-After (a torn upload is
//	                                 indistinguishable from corruption)
//	divergent bytes, same build    → 409 (permanent)
//	byte-identical re-upload       → 200 "duplicate"
//	valid + first                  → persist durably, 200 "accepted"
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	met := s.store.met
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxModelBytes+1))
	if err != nil {
		met.rejections.With("integrity").Inc()
		writeRetryable(w, r, "model upload interrupted, retry")
		return
	}
	if int64(len(raw)) > maxModelBytes {
		met.rejections.With("request").Inc()
		resilience.WriteError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("model exceeds %d bytes", maxModelBytes))
		return
	}
	q := r.URL.Query()
	source := q.Get("source")
	if source == "" {
		source = "api"
	}
	// Prefer the span context the tracing middleware already joined (the
	// producer's build trace); fall back to parsing the raw header for
	// bare mounts without the middleware. ParseTraceparent's strictness is
	// the validation: hostile or malformed values are dropped, never stored.
	traceparent := observe.SpanContextFrom(r.Context()).Traceparent()
	if traceparent == "" {
		if sc, ok := observe.ParseTraceparent(r.Header.Get(observe.HeaderTraceparent)); ok {
			traceparent = sc.Traceparent()
		}
	}
	info, dup, err := s.store.Publish(raw, q.Get("fingerprint"), source, traceparent)
	switch {
	case errors.Is(err, ErrInvalidModel):
		met.rejections.With("integrity").Inc()
		writeRetryable(w, r, "model failed integrity check, re-upload: "+err.Error())
		return
	case errors.Is(err, ErrConflict):
		met.rejections.With("conflict").Inc()
		resilience.WriteError(w, r, http.StatusConflict, err.Error())
		return
	case err != nil:
		resilience.WriteError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	status := "accepted"
	if dup {
		status = "duplicate"
	}
	cur, _, _ := s.store.List()
	resilience.WriteJSON(w, http.StatusOK, publishResponse{
		Status: status, Version: info.Version, SHA256: info.SHA256,
		Bytes: info.Bytes, Current: cur,
	})
}

// listResponse is the body of GET /registry/v1/models.
type listResponse struct {
	Current  int           `json:"current"`
	Pinned   bool          `json:"pinned"`
	Versions []VersionInfo `json:"versions"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	cur, pinned, versions := s.store.List()
	if versions == nil {
		versions = []VersionInfo{}
	}
	resilience.WriteJSON(w, http.StatusOK, listResponse{Current: cur, Pinned: pinned, Versions: versions})
}

// handleGet serves one version's bytes. "current" resolves the pin. A
// matching If-None-Match answers 304 with no body — the delta path that
// makes fleet-wide polling cheap.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	met := s.store.met
	var info VersionInfo
	var ok bool
	switch v := r.PathValue("version"); v {
	case "current":
		info, ok = s.store.Current()
		if !ok {
			resilience.WriteError(w, r, http.StatusNotFound, "no model published yet")
			return
		}
	default:
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			met.rejections.With("request").Inc()
			resilience.WriteError(w, r, http.StatusBadRequest, "version must be a positive integer or \"current\"")
			return
		}
		if info, ok = s.store.Info(n); !ok {
			resilience.WriteError(w, r, http.StatusNotFound, fmt.Sprintf("version %d not found", n))
			return
		}
	}

	etag := `"` + info.SHA256 + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set(HeaderVersion, strconv.Itoa(info.Version))
	w.Header().Set(HeaderSHA256, info.SHA256)
	w.Header().Set(HeaderPublished, strconv.FormatInt(info.PublishedUnixMs, 10))
	if info.Source != "" {
		w.Header().Set(HeaderSource, info.Source)
	}
	if info.Traceparent != "" {
		w.Header().Set(HeaderTraceparent, info.Traceparent)
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, info.SHA256) {
		met.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}

	start := time.Now()
	info, raw, err := s.store.Get(info.Version)
	switch {
	case errors.Is(err, ErrCorrupt):
		// Quarantined just now; the pointer already fell back, so the
		// client's next poll converges.
		met.rejections.With("integrity").Inc()
		writeRetryable(w, r, err.Error())
		return
	case errors.Is(err, ErrNotFound):
		resilience.WriteError(w, r, http.StatusNotFound, err.Error())
		return
	case err != nil:
		resilience.WriteError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Bytes, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(raw); err == nil {
		met.pullSeconds.Observe(time.Since(start).Seconds())
	}
}

// etagMatch reports whether an If-None-Match header names the digest,
// tolerating quoting and weak validators.
func etagMatch(header, sha string) bool {
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		tag = strings.TrimPrefix(tag, "W/")
		tag = strings.Trim(tag, `"`)
		if tag == sha || tag == "*" {
			return true
		}
	}
	return false
}

// pinRequest is the body of POST /registry/v1/pin: either a concrete
// version to pin (rollback when older than current) or latest=true to
// unpin and track new publishes again.
type pinRequest struct {
	Version int  `json:"version"`
	Latest  bool `json:"latest"`
}

func (s *Server) handlePin(w http.ResponseWriter, r *http.Request) {
	met := s.store.met
	var req pinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		met.rejections.With("request").Inc()
		resilience.WriteError(w, r, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if !req.Latest && req.Version < 1 {
		met.rejections.With("request").Inc()
		resilience.WriteError(w, r, http.StatusBadRequest, `pin needs "version" >= 1 or "latest": true`)
		return
	}
	target := req.Version
	if req.Latest {
		target = 0
	}
	info, rollback, err := s.store.Pin(target)
	switch {
	case errors.Is(err, ErrNotFound):
		resilience.WriteError(w, r, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, ErrCorrupt):
		// The pin target failed digest verification and was quarantined:
		// the request names a version that can never be served.
		met.rejections.With("integrity").Inc()
		resilience.WriteError(w, r, http.StatusConflict, err.Error())
		return
	case err != nil:
		resilience.WriteError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	resilience.WriteJSON(w, http.StatusOK, publishResponse{
		Status: "pinned", Version: info.Version, SHA256: info.SHA256,
		Bytes: info.Bytes, Current: info.Version, Rollback: rollback,
	})
}

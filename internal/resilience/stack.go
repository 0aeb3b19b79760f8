package resilience

import (
	"log/slog"
	"net/http"
	"time"

	"repro/internal/observe"
)

// StackConfig parameterizes Stack. The zero value of every limit disables
// that layer, so a server whose requests must never be shed, cut short or
// capped (the distbuild coordinator's shard uploads and leases) keeps the
// outer layers alone.
type StackConfig struct {
	// Tier classifies API requests for admission (nil: all interactive).
	Tier func(*http.Request) Tier
	// DeadlineFloor is the per-route fast-fail floor of DeadlineBudget
	// (nil: no fast-fail).
	DeadlineFloor func(*http.Request) time.Duration
	// Route maps a request to a bounded-cardinality label for the HTTP
	// metrics and the server span name; unknown paths must map to a fixed
	// label such as "other".
	Route func(*http.Request) string

	// MaxInFlight is the upper bound of the adaptive admission limit
	// (<= 0 disables admission).
	MaxInFlight int
	// LatencyTarget is the latency the admission limit adapts toward
	// (<= 0: the admission default).
	LatencyTarget time.Duration
	// RequestTimeout is the default per-request deadline, tightened by an
	// inbound X-Deadline-Ms budget (<= 0 disables).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (<= 0 disables).
	MaxBodyBytes int64

	// Metrics receives every metric family and is served on /metrics
	// (nil gets a private registry).
	Metrics *observe.Registry
	// Logger receives access logs and panic reports (nil discards).
	Logger *slog.Logger
	// Tracer opens a server span per request and backs /debug/traces
	// (nil disables both).
	Tracer *observe.Tracer
	// Pprof and TraceDebug gate /debug/pprof and /debug/traces; a closed
	// gate answers 404 like an unknown path.
	Pprof, TraceDebug bool

	// Unshed mounts extra routes (pattern → handler) beside /v1/livez,
	// /metrics and /debug/: inside recovery, outside admission, deadline
	// and body cap — readiness probes belong here.
	Unshed map[string]http.Handler
}

// Stack wraps api in the hardened serving chain every autodetectd mode
// shares, outermost first:
//
//	RequestID → Tracing → Metrics → AccessLog → Recover →
//	    [/v1/livez, /metrics, /debug/, Unshed] →
//	    Admission → DeadlineBudget → MaxBytes → api
//
// Metrics sits outside Recover and the limits so 429s, 504s and recovered
// 500s are counted and carry trace exemplars; the access log sees the
// final status of every request. Probes and the scrape bypass admission
// and the deadline: an orchestrator must tell "alive but shedding" from
// "dead", and the scrape that would explain an overload must not itself
// be shed.
func Stack(api http.Handler, cfg StackConfig) http.Handler {
	reg := cfg.Metrics
	if reg == nil {
		reg = observe.NewRegistry()
	}
	adm := NewAdmission(AdmissionConfig{
		MaxConcurrency: cfg.MaxInFlight,
		Target:         cfg.LatencyTarget,
		Tier:           cfg.Tier,
		Metrics:        reg,
	})
	hardened := Chain(
		adm.Middleware(),
		DeadlineBudget(cfg.RequestTimeout, cfg.DeadlineFloor, reg),
		MaxBytes(cfg.MaxBodyBytes),
	)(api)

	var recorder *observe.FlightRecorder
	if cfg.Tracer != nil {
		recorder = cfg.Tracer.Recorder()
	}
	root := http.NewServeMux()
	root.HandleFunc("/v1/livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"alive"}` + "\n"))
	})
	root.Handle("/metrics", reg.Handler())
	root.Handle("/debug/", observe.DebugHandler(observe.DebugOptions{
		Pprof:    cfg.Pprof,
		Traces:   cfg.TraceDebug && recorder != nil,
		Recorder: recorder,
	}))
	for pattern, h := range cfg.Unshed {
		root.Handle(pattern, h)
	}
	root.Handle("/", hardened)

	metrics := NewHTTPMetrics(reg)
	if cfg.Route != nil {
		metrics.Route = cfg.Route
	}
	return Chain(
		RequestID(),
		Tracing(cfg.Tracer, cfg.Route),
		Metrics(metrics),
		AccessLog(cfg.Logger),
		Recover(observe.Logf(cfg.Logger, slog.LevelError)),
	)(root)
}

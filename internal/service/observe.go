package service

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/sketch"
)

// serverObs holds the server's metric handles, created once on first
// Handler/Swap use from the configured Metrics registry.
type serverObs struct {
	reg          *observe.Registry
	modelLoaded  *observe.Gauge   // autodetect_model_loaded
	modelBytes   *observe.Gauge   // autodetect_model_bytes
	modelLangs   *observe.Gauge   // autodetect_model_languages
	modelVersion *observe.Gauge   // autodetect_model_version
	swaps        *observe.Counter // autodetect_model_swaps_total
}

// knownRoutes is the bounded route-label set; anything else — scans,
// typos, crawlers — collapses into "other" so an attacker cannot inflate
// metric cardinality by walking the URL space.
var knownRoutes = map[string]bool{
	"/v1/health":       true,
	"/v1/livez":        true,
	"/v1/readyz":       true,
	"/v1/check-column": true,
	"/v1/check-table":  true,
	"/v1/check-pair":   true,
	"/v1/admin/reload": true,
	"/v1/jobs":         true,
	"/metrics":         true,
}

// RouteLabel maps a request to its bounded metrics and span label.
func RouteLabel(r *http.Request) string {
	if knownRoutes[r.URL.Path] {
		return r.URL.Path
	}
	// Job IDs are client-visible path segments; collapse them so metric
	// cardinality stays bounded.
	if strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
		if strings.HasSuffix(r.URL.Path, "/results") {
			return "/v1/jobs/{id}/results"
		}
		return "/v1/jobs/{id}"
	}
	if strings.HasPrefix(r.URL.Path, "/debug/pprof") {
		return "/debug/pprof"
	}
	if strings.HasPrefix(r.URL.Path, "/debug/traces") {
		return "/debug/traces"
	}
	return "other"
}

// observability lazily builds the metric handles. The Metrics field is
// read once here; set it before the first Handler or Swap call.
func (s *Server) observability() *serverObs {
	s.obsOnce.Do(func() {
		reg := s.Metrics
		if reg == nil {
			reg = observe.NewRegistry()
		}
		o := &serverObs{reg: reg}
		o.modelLoaded = reg.Gauge("autodetect_model_loaded",
			"1 when a model is loaded and the server is ready, 0 before the first load.")
		o.modelBytes = reg.Gauge("autodetect_model_bytes",
			"Statistics footprint of the served model in bytes.")
		o.modelLangs = reg.Gauge("autodetect_model_languages",
			"Generalization languages in the served model's ensemble.")
		o.modelVersion = reg.Gauge("autodetect_model_version",
			"Registry version of the served model (0 when not registry-sourced); the "+
				"fleet-convergence signal a rollout watches per replica.")
		o.swaps = reg.Counter("autodetect_model_swaps_total",
			"Model hot-swaps since start (reloads via SIGHUP or /v1/admin/reload).")
		reg.GaugeFunc("autodetect_model_age_seconds",
			"Seconds since the served model was published (registry-sourced) or loaded.",
			func() float64 {
				m := s.snapshot()
				if m == nil {
					return 0
				}
				if m.info.PublishedUnixMs > 0 {
					return time.Since(time.UnixMilli(m.info.PublishedUnixMs)).Seconds()
				}
				return time.Since(m.loaded).Seconds()
			})

		// Detection hot-path counters live in their packages as striped
		// atomics; expose them at scrape time.
		hp := core.HotPath
		reg.CounterFunc("autodetect_detect_values_total",
			"Column cells submitted to DetectColumn.", func() uint64 { return hp().Values })
		reg.CounterFunc("autodetect_detect_pairs_total",
			"Distinct value pairs scored by the detector.", func() uint64 { return hp().Pairs })
		reg.CounterFunc("autodetect_detect_language_pairs_total",
			"Per-language pair evaluations (pairs × ensemble size).", func() uint64 { return hp().LanguagePairs })
		reg.CounterFunc("autodetect_sketch_estimate_total",
			"Count-min sketch point estimates served (sampled, unbiased).",
			func() uint64 { return sketch.HotPath().Estimates })
		reg.CounterFunc("autodetect_sketch_collision_total",
			"Sketch estimates whose hash rows disagreed, i.e. collision noise present (sampled, unbiased).",
			func() uint64 { return sketch.HotPath().Collisions })

		s.obs = o
		s.syncModelGauges()
	})
	return s.obs
}

// syncModelGauges reflects the current model snapshot into the readiness
// and model gauges. Callers build s.obs first (observability).
func (s *Server) syncModelGauges() {
	m := s.snapshot()
	if m == nil {
		s.obs.modelLoaded.Set(0)
		s.obs.modelBytes.Set(0)
		s.obs.modelLangs.Set(0)
		s.obs.modelVersion.Set(0)
		return
	}
	s.obs.modelLoaded.Set(1)
	s.obs.modelBytes.Set(float64(m.det.Bytes()))
	s.obs.modelLangs.Set(float64(len(m.det.Languages())))
	s.obs.modelVersion.Set(float64(m.info.Version))
}

// Registry returns the server's metrics registry (creating the default
// one if none was configured), for callers that want to register extra
// collectors — the daemon adds pipeline metrics here.
func (s *Server) Registry() *observe.Registry {
	return s.observability().reg
}

// obsState is embedded in Server to keep the observability fields grouped.
type obsState struct {
	obsOnce sync.Once
	obs     *serverObs
}

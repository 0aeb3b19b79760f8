package registry

import "repro/internal/observe"

// metrics is the bundle of registry instrument families. On a nil
// observe registry its instruments still count but are never exported.
type metrics struct {
	versions       *observe.Gauge      // autodetect_registry_versions
	currentVersion *observe.Gauge      // autodetect_registry_current_version
	publishes      *observe.Counter    // autodetect_registry_publishes_total
	duplicates     *observe.Counter    // autodetect_registry_duplicates_total
	pins           *observe.Counter    // autodetect_registry_pins_total
	rollbacks      *observe.Counter    // autodetect_registry_rollbacks_total
	quarantined    *observe.Counter    // autodetect_registry_quarantined_total
	rejections     *observe.CounterVec // autodetect_registry_rejections_total{reason}
	notModified    *observe.Counter    // autodetect_registry_not_modified_total
	pullSeconds    *observe.Histogram  // autodetect_registry_pull_seconds
}

func newMetrics(r *observe.Registry) *metrics {
	return &metrics{
		versions: r.Gauge("autodetect_registry_versions",
			"Intact model versions stored in the registry."),
		currentVersion: r.Gauge("autodetect_registry_current_version",
			"The pinned \"current\" model version served to the fleet (0 before the first publish)."),
		publishes: r.Counter("autodetect_registry_publishes_total",
			"Model versions accepted and durably stored."),
		duplicates: r.Counter("autodetect_registry_duplicates_total",
			"Byte-identical re-publishes acknowledged without storing a new version."),
		pins: r.Counter("autodetect_registry_pins_total",
			"Current-pointer moves via POST /registry/v1/pin."),
		rollbacks: r.Counter("autodetect_registry_rollbacks_total",
			"Pins that moved the current pointer to an older version."),
		quarantined: r.Counter("autodetect_registry_quarantined_total",
			"Stored versions that failed digest re-verification and were quarantined."),
		rejections: r.CounterVec("autodetect_registry_rejections_total",
			"Refused registry requests, by reason (integrity, conflict, request).",
			"reason"),
		notModified: r.Counter("autodetect_registry_not_modified_total",
			"Conditional model fetches answered 304 Not Modified (no-body delta polls)."),
		pullSeconds: r.Histogram("autodetect_registry_pull_seconds",
			"Latency of full model downloads served by GET /registry/v1/models/{version}.", nil),
	}
}

// pullerMetrics is the replica-side bundle: how this replica's Puller is
// interacting with the registry.
type pullerMetrics struct {
	polls       *observe.Counter // autodetect_registry_client_polls_total
	notModified *observe.Counter // autodetect_registry_client_not_modified_total
	pulls       *observe.Counter // autodetect_registry_client_pulls_total
	errors      *observe.Counter // autodetect_registry_client_errors_total
	pullSeconds *observe.Histogram
}

func newPullerMetrics(r *observe.Registry) *pullerMetrics {
	return &pullerMetrics{
		polls: r.Counter("autodetect_registry_client_polls_total",
			"Registry polls issued by this replica's puller."),
		notModified: r.Counter("autodetect_registry_client_not_modified_total",
			"Polls answered 304 Not Modified (model unchanged)."),
		pulls: r.Counter("autodetect_registry_client_pulls_total",
			"Model versions downloaded, digest-verified, and applied."),
		errors: r.Counter("autodetect_registry_client_errors_total",
			"Poll rounds that failed after retries (registry down, torn bodies, apply failures)."),
		pullSeconds: r.Histogram("autodetect_registry_client_pull_seconds",
			"Latency of successful download-and-apply rounds on this replica.", nil),
	}
}

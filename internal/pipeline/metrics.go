package pipeline

import "repro/internal/observe"

// pipelineMetrics holds the build's metric handles on the registry passed
// through Options.Metrics. All families are registered idempotently, so
// repeated builds (the daemon retrains on every SIGHUP) accumulate into
// the same series.
type pipelineMetrics struct {
	builds      *observe.Counter    // autodetect_pipeline_builds_total
	stageSecs   *observe.CounterVec // autodetect_pipeline_stage_seconds_total{stage}
	columns     *observe.Gauge      // autodetect_pipeline_columns
	values      *observe.Gauge      // autodetect_pipeline_values
	workers     *observe.Gauge      // autodetect_pipeline_workers
	busySecs    *observe.Counter    // autodetect_pipeline_worker_busy_seconds_total
	checkpoints *observe.Counter    // autodetect_pipeline_checkpoints_total
}

func newPipelineMetrics(reg *observe.Registry) *pipelineMetrics {
	return &pipelineMetrics{
		builds: reg.Counter("autodetect_pipeline_builds_total",
			"Completed pipeline builds since start."),
		stageSecs: reg.CounterVec("autodetect_pipeline_stage_seconds_total",
			"Cumulative wall-clock seconds per pipeline stage.", "stage"),
		columns: reg.Gauge("autodetect_pipeline_columns",
			"Corpus columns folded into the current build, including checkpoint-restored ones."),
		values: reg.Gauge("autodetect_pipeline_values",
			"Corpus cells folded into the current build."),
		workers: reg.Gauge("autodetect_pipeline_workers",
			"Counting/calibration worker parallelism of the current build."),
		busySecs: reg.Counter("autodetect_pipeline_worker_busy_seconds_total",
			"Seconds counting workers spent folding columns (busy time; compare against stage seconds × workers for utilization)."),
		checkpoints: reg.Counter("autodetect_pipeline_checkpoints_total",
			"Checkpoint shards persisted."),
	}
}

// sourceMetrics are the ingestion-side fault-tolerance families: budget
// burn (files skipped, columns quarantined), retry pressure, and per-file
// open/parse latency. Attached to fault-tolerant sources (DirSource) by
// Run, so /metrics shows budget consumption live during a build.
type sourceMetrics struct {
	filesSkipped *observe.Counter   // autodetect_pipeline_files_skipped_total
	colsQuar     *observe.Counter   // autodetect_pipeline_columns_quarantined_total
	ioRetries    *observe.Counter   // autodetect_pipeline_io_retries_total
	openSecs     *observe.Histogram // autodetect_pipeline_file_open_seconds
	parseSecs    *observe.Histogram // autodetect_pipeline_file_parse_seconds
}

func newSourceMetrics(reg *observe.Registry) *sourceMetrics {
	return &sourceMetrics{
		filesSkipped: reg.Counter("autodetect_pipeline_files_skipped_total",
			"Table files skipped after quarantine (unreadable or unparseable past the retry policy)."),
		colsQuar: reg.Counter("autodetect_pipeline_columns_quarantined_total",
			"Individual columns quarantined for failing ingestion validation (binary garbage, mega-columns)."),
		ioRetries: reg.Counter("autodetect_pipeline_io_retries_total",
			"Transient I/O retries performed while opening/parsing table files."),
		openSecs: reg.Histogram("autodetect_pipeline_file_open_seconds",
			"Latency of table file open attempts.", observe.DefBuckets),
		parseSecs: reg.Histogram("autodetect_pipeline_file_parse_seconds",
			"Latency of table file parse attempts (read+close).", observe.DefBuckets),
	}
}

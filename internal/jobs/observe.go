package jobs

import "repro/internal/observe"

// jobBuckets extend the default latency buckets into the minutes range:
// a whole-spreadsheet audit is seconds-to-minutes, not milliseconds.
var jobBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// jobsObs bundles the manager's metric handles, registered idempotently
// on the configured registry (the daemon passes the process-wide one, so
// the jobs_* families land on the same /metrics page as serving and
// pipeline metrics).
type jobsObs struct {
	submitted *observe.Counter
	completed *observe.Counter
	failed    *observe.Counter
	cancelled *observe.Counter
	resumed   *observe.Counter
	depth     *observe.Gauge
	running   *observe.Gauge
	jobDur    *observe.Histogram
	colDur    *observe.Histogram
}

func newJobsObs(reg *observe.Registry) *jobsObs {
	return &jobsObs{
		submitted: reg.Counter("autodetect_jobs_submitted_total",
			"Batch audit jobs accepted into the queue."),
		completed: reg.Counter("autodetect_jobs_completed_total",
			"Batch audit jobs that finished every column."),
		failed: reg.Counter("autodetect_jobs_failed_total",
			"Batch audit jobs that ended in failure (executor error or deadline)."),
		cancelled: reg.Counter("autodetect_jobs_cancelled_total",
			"Batch audit jobs cancelled by clients."),
		resumed: reg.Counter("autodetect_jobs_resumed_total",
			"Executor pickups that continued a job from a non-zero checkpoint (after a crash or drain)."),
		depth: reg.Gauge("autodetect_jobs_queue_depth",
			"Batch audit jobs waiting in the FIFO queue."),
		running: reg.Gauge("autodetect_jobs_running",
			"Batch audit jobs currently executing."),
		jobDur: reg.Histogram("autodetect_job_seconds",
			"End-to-end batch job execution time (per executor pickup).", jobBuckets),
		colDur: reg.Histogram("autodetect_job_column_seconds",
			"Per-column audit time inside batch jobs.", observe.DefBuckets),
	}
}

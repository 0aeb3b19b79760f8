// Package distbuild distributes the corpus-counting stage of an Auto-Detect
// model build (PAPER.md; the O(n) counting pass dominates wall-clock on
// web-scale corpora) across processes: a coordinator partitions the corpus
// directory, hands partitions to workers as TTL-bounded leases, and merges
// the integrity-enveloped statistic shards workers upload back into the
// byte-identical model a single-process pipeline.Run would have produced.
//
// The robustness contract, verified end-to-end by the chaos test:
//
//   - Partitions are leases, not assignments. A worker renews its lease by
//     heartbeating; a missed TTL expires the lease and the partition is
//     reassigned to the next worker that asks. Worker death never wedges a
//     build.
//   - Shard upload is idempotent. A duplicate upload of an already-accepted
//     partition (a worker that died after the coordinator committed but
//     before it saw the 200, then retried) is acknowledged and discarded —
//     never merged twice.
//   - Torn or bit-flipped uploads fail the CRC64 envelope and are refused
//     with a retryable 503; the worker re-uploads.
//   - Accepted shards are persisted with atomicio under the coordinator's
//     state directory, so a coordinator crash resumes the build from the
//     shards already accepted instead of recounting the corpus.
//
// Wire format: JSON request/response bodies on /distbuild/v1/* for control,
// and the binary pipeline shard encoding (AUTODETECT-SH/1) for data: an
// encoded pipeline.Partial, the same file a checkpointed build writes at
// each barrier.
package distbuild

import (
	"net/http"

	"repro/internal/pipeline"
)

// Endpoint paths. Versioned so a future protocol revision can coexist with
// draining v1 workers.
const (
	PathLease     = "/distbuild/v1/lease"
	PathHeartbeat = "/distbuild/v1/heartbeat"
	PathShard     = "/distbuild/v1/shard"
	PathStatus    = "/distbuild/v1/status"
)

// RouteLabel bounds the route label cardinality of the coordinator's HTTP
// metrics: each protocol endpoint keeps its path, anything else is
// "other".
func RouteLabel(r *http.Request) string {
	switch p := r.URL.Path; p {
	case PathLease, PathHeartbeat, PathShard, PathStatus:
		return p
	}
	return "other"
}

// LeaseRequest asks the coordinator for a partition to count.
type LeaseRequest struct {
	// Worker identifies the requester in leases, logs, and metrics.
	Worker string `json:"worker"`
}

// LeaseResponse is the coordinator's answer to a lease request. Exactly one
// of three shapes comes back: Done (build complete, go away), Wait (every
// pending partition is currently leased — retry after RetryAfterSeconds),
// or a granted lease (Partition/Partitions/TTLMillis/Build populated).
type LeaseResponse struct {
	Done              bool `json:"done,omitempty"`
	Wait              bool `json:"wait,omitempty"`
	RetryAfterSeconds int  `json:"retry_after_seconds,omitempty"`

	// Partition is the granted partition index in [0, Partitions).
	Partition  int `json:"partition"`
	Partitions int `json:"partitions"`
	// TTLMillis is the lease TTL; the worker must heartbeat well within it
	// (TTL/3 is the convention) or the partition is reassigned.
	TTLMillis int64 `json:"ttl_millis"`

	// Traceparent is the build's root span context in W3C form; a tracing
	// worker records its counting spans as children of the coordinator's
	// build trace so the whole distributed build is one causal timeline.
	Traceparent string `json:"traceparent,omitempty"`

	Build BuildParams `json:"build"`
}

// BuildParams pin the worker's counting run to the coordinator's build: the
// corpus identity it must see locally, the configuration knobs that shape
// counting, and the exact fingerprint its uploaded shard must carry.
type BuildParams struct {
	// CorpusFingerprint is the whole-directory fingerprint. A worker whose
	// local corpus view disagrees must abort rather than count garbage.
	CorpusFingerprint string `json:"corpus_fingerprint"`
	// PartitionFingerprint is the expected Partial.Fingerprint for this
	// partition; the coordinator refuses shards that disagree.
	PartitionFingerprint string `json:"partition_fingerprint"`
	// HasHeader mirrors the coordinator's CSV header setting.
	HasHeader bool `json:"has_header"`
	// Count carries the resolved counting knobs (languages by ID,
	// smoothing, sample bound, distant-supervision seed).
	Count CountParams `json:"count"`
}

// CountParams aliases the pipeline's resolved counting knobs.
type CountParams = pipeline.CountParams

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker    string `json:"worker"`
	Partition int    `json:"partition"`
}

// StatusResponse summarizes build progress for /distbuild/v1/status and the
// CI smoke harness.
type StatusResponse struct {
	Partitions      int    `json:"partitions"`
	Done            int    `json:"done"`
	Complete        bool   `json:"complete"`
	LeasesGranted   uint64 `json:"leases_granted"`
	LeasesExpired   uint64 `json:"leases_expired"`
	Reassignments   uint64 `json:"reassignments"`
	ShardsAccepted  uint64 `json:"shards_accepted"`
	ShardsDuplicate uint64 `json:"shards_duplicate"`
	ShardsRejected  uint64 `json:"shards_rejected"`
}

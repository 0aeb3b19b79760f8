package distbuild

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// Defaults for CoordinatorConfig's zero fields.
const (
	DefaultLeaseTTL   = 10 * time.Second
	defaultMaxShard   = int64(1) << 31 // 2 GiB upload cap
	shardFilePattern  = "partition-%04d.shard"
	shardSubdir       = "shards"
	leaseWaitFallback = 1 // seconds a worker should wait when all partitions are leased
)

// CoordinatorConfig configures NewCoordinator.
type CoordinatorConfig struct {
	// StateDir is where accepted shards are persisted (under
	// StateDir/shards). A coordinator restarted over a non-empty StateDir
	// resumes the build from the shards already accepted. Required.
	StateDir string
	// Partitions is the requested partition count, clamped to the corpus's
	// file count (minimum 1).
	Partitions int
	// LeaseTTL bounds how long a silent worker keeps a partition (default
	// DefaultLeaseTTL). Workers heartbeat every TTL/3.
	LeaseTTL time.Duration
	// Options is the full build configuration; the counting-relevant knobs
	// are resolved and forwarded to workers, the rest (pair counts,
	// calibration target, memory budget) apply at finalization here.
	Options pipeline.Options
	// Metrics, when set, receives the distbuild_* instrument families.
	Metrics *observe.Registry
	// Tracer, when set, opens a root span covering the whole build in its
	// flight recorder. Granted leases carry its traceparent so worker
	// spans join the build trace, and merge/finalize/publish stages hang
	// off it via TraceContext.
	Tracer *observe.Tracer
	// Logf, when set, receives one line per protocol event.
	Logf func(format string, args ...any)
}

// Coordinator owns one distributed build: the lease table, the accepted
// shards, and the final merge. It is safe for concurrent use by its HTTP
// handler.
type Coordinator struct {
	part   *pipeline.DirPartitioner
	cfg    CoordinatorConfig
	met    *metrics
	now    func() time.Time // injectable clock for lease tests
	logf   func(format string, args ...any)
	shards string // StateDir/shards

	n        int      // partition count (clamped)
	expected []string // expected Partial.Fingerprint per partition
	params   CountParams

	traceCtx     context.Context // carries the build root span when tracing
	endTraceOnce sync.Once
	endTrace     func()
	traceparent  string // propagated in granted leases

	nAccepted  atomic.Uint64
	nDuplicate atomic.Uint64
	nRejected  atomic.Uint64

	mu       sync.Mutex
	table    *leaseTable
	accepted []uint64 // envelope checksum of each accepted shard's bytes
	restored int      // partitions restored from StateDir at startup
	doneCh   chan struct{}
	doneOnce sync.Once
}

// NewCoordinator prepares a coordinator over an already-scanned corpus
// partitioner, computing every partition's expected shard fingerprint and
// restoring any shards a previous incarnation persisted under
// cfg.StateDir.
func NewCoordinator(part *pipeline.DirPartitioner, cfg CoordinatorConfig) (*Coordinator, error) {
	if part == nil {
		return nil, errors.New("distbuild: nil partitioner")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("distbuild: CoordinatorConfig.StateDir is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		part:   part,
		cfg:    cfg,
		met:    newMetrics(cfg.Metrics),
		now:    time.Now,
		logf:   cfg.Logf,
		shards: filepath.Join(cfg.StateDir, shardSubdir),
		n:      part.Clamp(cfg.Partitions),
		params: pipeline.ResolveCountParams(cfg.Options),
		doneCh: make(chan struct{}),
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	c.expected = make([]string, c.n)
	for i := 0; i < c.n; i++ {
		fp, err := part.PartitionFingerprint(pipeline.PartitionSpec{Index: i, Count: c.n})
		if err != nil {
			return nil, fmt.Errorf("distbuild: fingerprinting partition %d: %w", i, err)
		}
		c.expected[i] = pipeline.BuildFingerprint(fp, cfg.Options)
	}
	c.traceCtx = context.Background()
	c.endTrace = func() {}
	if cfg.Tracer != nil {
		ctx := observe.ContextWithTracer(context.Background(), cfg.Tracer)
		if cfg.Metrics != nil {
			ctx = observe.ContextWithRegistry(ctx, cfg.Metrics)
		}
		// The build root lives in the recorder only: a span covering an
		// entire multi-minute build would distort the stage-latency
		// histogram that SpanMetric feeds.
		c.traceCtx, c.endTrace = observe.RecorderSpan(ctx, "distbuild_build")
		c.traceparent = observe.SpanContextFrom(c.traceCtx).Traceparent()
	}
	c.table = newLeaseTable(c.n, cfg.LeaseTTL)
	c.accepted = make([]uint64, c.n)
	if err := os.MkdirAll(c.shards, 0o755); err != nil {
		return nil, fmt.Errorf("distbuild: creating shard directory: %w", err)
	}
	if err := c.restore(); err != nil {
		return nil, err
	}
	c.registerGauges(cfg.Metrics)
	c.maybeDone()
	return c, nil
}

// restore rescans the shard directory, re-validating every persisted shard
// against the expected fingerprints. Valid shards complete their partition;
// torn, corrupt, or foreign shards are deleted so their partitions are
// recounted under a fresh lease.
func (c *Coordinator) restore() error {
	for i := 0; i < c.n; i++ {
		path := c.shardPath(i)
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("distbuild: reading persisted shard %d: %w", i, err)
		}
		p, derr := pipeline.DecodePartial(bytes.NewReader(raw))
		if derr != nil || p.Fingerprint != c.expected[i] {
			c.logf("distbuild: discarding stale shard %s (decode err=%v)", path, derr)
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("distbuild: removing stale shard: %w", err)
			}
			continue
		}
		c.accepted[i] = envelope.Checksum(raw)
		c.table.complete(i)
		c.restored++
	}
	if c.restored > 0 {
		c.logf("distbuild: restored %d/%d partitions from %s", c.restored, c.n, c.shards)
	}
	return nil
}

func (c *Coordinator) shardPath(i int) string {
	return filepath.Join(c.shards, fmt.Sprintf(shardFilePattern, i))
}

// Partitions reports the clamped partition count.
func (c *Coordinator) Partitions() int { return c.n }

// Restored reports how many partitions were recovered from StateDir at
// startup rather than counted by this incarnation's workers.
func (c *Coordinator) Restored() int { return c.restored }

// Handler returns the coordinator's HTTP surface, ready to mount on any
// mux or to wrap in the resilience middleware chain.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+PathShard, c.handleShard)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	return mux
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		c.reject("request")
		resilience.WriteError(w, r, http.StatusBadRequest, "lease request needs a worker name")
		return
	}
	c.mu.Lock()
	c.table.tick(c.now())
	c.observeExpiry()
	if c.table.allDone() {
		c.mu.Unlock()
		resilience.WriteJSON(w, http.StatusOK, LeaseResponse{Done: true})
		return
	}
	idx, reassigned, ok := c.table.acquire(req.Worker)
	c.mu.Unlock()
	if !ok {
		resilience.WriteJSON(w, http.StatusOK, LeaseResponse{Wait: true, RetryAfterSeconds: leaseWaitFallback})
		return
	}
	c.met.leasesGranted.Inc()
	if reassigned {
		c.met.leasesReassigned.Inc()
		c.logf("distbuild: partition %d reassigned to %s", idx, req.Worker)
	} else {
		c.logf("distbuild: partition %d leased to %s", idx, req.Worker)
	}
	resilience.WriteJSON(w, http.StatusOK, LeaseResponse{
		Partition:   idx,
		Partitions:  c.n,
		TTLMillis:   c.cfg.LeaseTTL.Milliseconds(),
		Traceparent: c.traceparent,
		Build: BuildParams{
			CorpusFingerprint:    c.part.Fingerprint(),
			PartitionFingerprint: c.expected[idx],
			HasHeader:            c.part.HasHeader(),
			Count:                c.params,
		},
	})
}

// reject counts one refused request in both the status counters and the
// metric family.
func (c *Coordinator) reject(reason string) {
	c.nRejected.Add(1)
	c.met.shardsRejected.With(reason).Inc()
}

// observeExpiry mirrors the table's cumulative expiry count into the
// monotonic metric. Called under c.mu after tick.
func (c *Coordinator) observeExpiry() {
	if d := float64(c.table.expired) - c.met.leasesExpired.Value(); d > 0 {
		c.met.leasesExpired.Add(d)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		c.reject("request")
		resilience.WriteError(w, r, http.StatusBadRequest, "heartbeat needs a worker name and partition")
		return
	}
	c.mu.Lock()
	c.table.tick(c.now())
	c.observeExpiry()
	err := c.table.heartbeat(req.Worker, req.Partition)
	c.mu.Unlock()
	if err != nil {
		resilience.WriteError(w, r, http.StatusGone, "lease lost: partition reassigned or completed")
		return
	}
	c.met.heartbeats.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleShard ingests one partition's counted statistics. The decision
// ladder, in order:
//
//	unparseable request          → 400 (permanent)
//	torn/bit-flipped envelope    → 503 + Retry-After (worker re-uploads)
//	wrong build fingerprint      → 409 (permanent: wrong corpus or config)
//	duplicate of accepted shard  → 200 "duplicate" (acknowledged, discarded)
//	different bytes for a done partition → 409 conflict
//	valid + first                → persist atomically, complete, 200 "accepted"
//
// Lease ownership is deliberately NOT checked: a correct shard is a correct
// shard even if it arrives after the uploader's lease lapsed — partials are
// pure functions of (partition, config), so any two workers' shards for the
// same partition carry identical statistics.
func (c *Coordinator) handleShard(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	idx, err := strconv.Atoi(q.Get("partition"))
	if err != nil || idx < 0 || idx >= c.n {
		c.reject("request")
		resilience.WriteError(w, r, http.StatusBadRequest, "bad or missing partition index")
		return
	}
	worker := q.Get("worker")
	raw, err := io.ReadAll(io.LimitReader(r.Body, defaultMaxShard))
	if err != nil {
		// The upload died mid-flight (reset, timeout): retryable.
		c.reject("integrity")
		w.Header().Set("Retry-After", strconv.Itoa(resilience.DefaultRetryAfterSeconds))
		resilience.WriteError(w, r, http.StatusServiceUnavailable, "shard upload interrupted, retry")
		return
	}
	p, err := pipeline.DecodePartial(bytes.NewReader(raw))
	if err != nil {
		c.reject("integrity")
		c.logf("distbuild: partition %d from %s failed integrity: %v", idx, worker, err)
		w.Header().Set("Retry-After", strconv.Itoa(resilience.DefaultRetryAfterSeconds))
		resilience.WriteError(w, r, http.StatusServiceUnavailable, "shard failed integrity check, re-upload")
		return
	}
	if p.Fingerprint != c.expected[idx] {
		c.reject("fingerprint")
		c.logf("distbuild: partition %d from %s has fingerprint %q, want %q", idx, worker, p.Fingerprint, c.expected[idx])
		resilience.WriteError(w, r, http.StatusConflict, "shard fingerprint does not match this build")
		return
	}

	sum := envelope.Checksum(raw)
	c.mu.Lock()
	if c.table.isDone(idx) {
		same := c.accepted[idx] == sum
		c.mu.Unlock()
		if same {
			c.nDuplicate.Add(1)
			c.met.shardsDuplicate.Inc()
			c.logf("distbuild: partition %d duplicate upload from %s acknowledged", idx, worker)
			resilience.WriteJSON(w, http.StatusOK, map[string]string{"status": "duplicate"})
			return
		}
		// Same fingerprint but different bytes should be impossible for
		// honest workers; refuse rather than guess.
		c.reject("conflict")
		resilience.WriteError(w, r, http.StatusConflict, "partition already completed with different shard bytes")
		return
	}
	// Persist before acknowledging: once the worker sees 200 the shard
	// must survive a coordinator crash.
	if err := atomicio.WriteFile(c.shardPath(idx), raw, 0o644); err != nil {
		c.mu.Unlock()
		c.reject("integrity")
		c.logf("distbuild: persisting partition %d: %v", idx, err)
		w.Header().Set("Retry-After", strconv.Itoa(resilience.DefaultRetryAfterSeconds))
		resilience.WriteError(w, r, http.StatusServiceUnavailable, "could not persist shard, retry")
		return
	}
	c.accepted[idx] = sum
	c.table.tick(c.now())
	c.observeExpiry()
	c.table.complete(idx)
	done := c.table.allDone()
	c.mu.Unlock()

	c.nAccepted.Add(1)
	c.met.shardsAccepted.Inc()
	c.logf("distbuild: partition %d accepted from %s (%d columns)", idx, worker, p.Columns)
	if done {
		c.maybeDone()
	}
	resilience.WriteJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	resilience.WriteJSON(w, http.StatusOK, c.Status())
}

// Status snapshots build progress.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.tick(c.now())
	c.observeExpiry()
	st := StatusResponse{
		Partitions:    c.n,
		Done:          c.table.done,
		Complete:      c.table.allDone(),
		LeasesGranted: c.table.granted,
		LeasesExpired: c.table.expired,
		Reassignments: c.table.reassigned,
	}
	st.ShardsAccepted = c.nAccepted.Load()
	st.ShardsDuplicate = c.nDuplicate.Load()
	st.ShardsRejected = c.nRejected.Load()
	return st
}

func (c *Coordinator) maybeDone() {
	c.mu.Lock()
	done := c.table.allDone()
	c.mu.Unlock()
	if done {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}
}

// TraceContext returns the context carrying the build's root span and
// tracer, so callers can hang further stages (model publish, upload) off
// the build trace and inject its traceparent into outbound requests.
// Returns a plain background context when tracing is disabled.
func (c *Coordinator) TraceContext() context.Context { return c.traceCtx }

// EndTrace completes the build's root span, finalizing the trace into
// the flight recorder. Call once the build — including any publish — is
// finished; idempotent.
func (c *Coordinator) EndTrace() { c.endTraceOnce.Do(c.endTrace) }

// Wait blocks until every partition's shard has been accepted or ctx ends.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BuildModel merges the accepted shards in partition-index order and runs
// the finalization stages (canonicalize → distant supervision → calibrate →
// select) under the coordinator's full Options. Index order is what keeps
// the unbounded (SampleColumns=0) configuration byte-identical to a
// single-process build.
func (c *Coordinator) BuildModel(ctx context.Context) (*core.Detector, *core.TrainReport, error) {
	c.mu.Lock()
	done := c.table.allDone()
	c.mu.Unlock()
	if !done {
		return nil, nil, errors.New("distbuild: build incomplete, cannot finalize")
	}
	// Stage spans hang off the build trace (not the caller's cancellation
	// context); Finalize still honors ctx for cancellation.
	mergeCtx, endMerge := observe.Span(c.traceCtx, "merge_shards")
	var merged *pipeline.Partial
	for i := 0; i < c.n; i++ {
		raw, err := os.ReadFile(c.shardPath(i))
		if err != nil {
			observe.SetSpanError(mergeCtx, err.Error())
			endMerge()
			return nil, nil, fmt.Errorf("distbuild: reading accepted shard %d: %w", i, err)
		}
		p, err := pipeline.DecodePartial(bytes.NewReader(raw))
		if err != nil {
			observe.SetSpanError(mergeCtx, err.Error())
			endMerge()
			return nil, nil, fmt.Errorf("distbuild: accepted shard %d no longer valid: %w", i, err)
		}
		if p.Fingerprint != c.expected[i] {
			observe.SetSpanError(mergeCtx, "fingerprint drift")
			endMerge()
			return nil, nil, fmt.Errorf("distbuild: accepted shard %d fingerprint drifted", i)
		}
		if merged == nil {
			merged = p
		} else if err := merged.Merge(p); err != nil {
			observe.SetSpanError(mergeCtx, err.Error())
			endMerge()
			return nil, nil, fmt.Errorf("distbuild: merging shard %d: %w", i, err)
		}
	}
	endMerge()
	finCtx, endFinalize := observe.Span(c.traceCtx, "finalize_model")
	det, rep, err := merged.Finalize(ctx, c.cfg.Options)
	if err != nil {
		observe.SetSpanError(finCtx, err.Error())
	}
	endFinalize()
	return det, rep, err
}

package distbuild

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/retry"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name identifies this worker in leases and logs (default
	// hostname-pid).
	Name string
	// Dir is the local path of the corpus directory. Its content must
	// fingerprint-match the coordinator's view (a shared mount or an
	// identical copy); the worker refuses to count a divergent corpus.
	Dir string
	// Workers is the counting parallelism inside this process (default
	// NumCPU via the pipeline).
	Workers int
	// HTTP issues the coordinator calls (default http.DefaultClient).
	// Tests inject fault-injecting transports here.
	HTTP *http.Client
	// Retry shapes every coordinator call. Zero-value fields take the
	// retry package defaults; AttemptTimeout additionally defaults to
	// resilience.DefaultAttemptTimeout. Retry.Budget, when set, bounds
	// retry amplification across all coordinator calls.
	Retry retry.Policy
	// Breaker, when set, guards the coordinator dependency: every call asks
	// Allow first, and while open the worker sits out a cooldown instead of
	// hammering a coordinator that is down or drowning.
	Breaker *resilience.Breaker
	// Tracer, when set, records a per-lease counting span into its flight
	// recorder as a child of the coordinator's build trace (joined via
	// the lease's traceparent) and injects the span context into every
	// coordinator call.
	Tracer *observe.Tracer
	// Logf, when set, receives one line per worker event.
	Logf func(format string, args ...any)
}

// WorkerStats summarizes one RunWorker call.
type WorkerStats struct {
	// PartitionsCounted is how many shards this worker got accepted
	// (duplicate acknowledgements count — the work was done).
	PartitionsCounted int
	// LeasesLost counts partitions abandoned mid-count because the
	// coordinator declared the lease gone (usually after a stall).
	LeasesLost int
	// Waits counts lease requests answered "all partitions busy".
	Waits int
	// BreakerWaits counts cooldowns spent because the coordinator breaker
	// was open.
	BreakerWaits int
}

// breakerCooldown is how long a worker sits out after its coordinator
// breaker rejects a lease request. Each loop while open costs the
// coordinator nothing (the rejection is local), so a short cooldown keeps
// the worker responsive to the breaker's half-open probe window.
const breakerCooldown = time.Second

// worker carries the per-run state of RunWorker.
type worker struct {
	cfg  WorkerConfig
	call resilience.Client
	logf func(format string, args ...any)
	part *pipeline.DirPartitioner // lazily opened on the first lease
}

// RunWorker participates in a distributed build until the coordinator
// reports it complete: lease a partition, count it (heartbeating all the
// while), upload the shard, repeat. It returns nil when the build is done,
// ctx.Err() on cancellation, and a descriptive error when the corpus view
// diverges from the coordinator's or the coordinator refuses this worker's
// shards permanently. Lost leases are not errors — the partition is simply
// someone else's now, and the worker asks for another.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	var stats WorkerStats
	if cfg.Coordinator == "" {
		return stats, errors.New("distbuild: WorkerConfig.Coordinator is required")
	}
	if cfg.Dir == "" {
		return stats, errors.New("distbuild: WorkerConfig.Dir is required")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &worker{
		cfg:  cfg,
		call: resilience.Client{HTTP: cfg.HTTP, Retry: cfg.Retry, Breaker: cfg.Breaker, Peer: "coordinator"},
		logf: cfg.Logf,
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var lease LeaseResponse
		if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: cfg.Name}, &lease); err != nil {
			if errors.Is(err, resilience.ErrBreakerOpen) {
				// The coordinator breaker is open: sit out a cooldown and
				// re-ask. A down coordinator should idle workers, not kill
				// them — the build resumes when the breaker's probe heals.
				stats.BreakerWaits++
				if serr := sleep(ctx, breakerCooldown); serr != nil {
					return stats, serr
				}
				continue
			}
			return stats, fmt.Errorf("distbuild: requesting lease: %w", err)
		}
		switch {
		case lease.Done:
			w.logf("distbuild worker %s: build complete", cfg.Name)
			return stats, nil
		case lease.Wait:
			stats.Waits++
			if err := sleep(ctx, time.Duration(max(lease.RetryAfterSeconds, 1))*time.Second); err != nil {
				return stats, err
			}
			continue
		}
		err := w.runLease(ctx, lease)
		switch {
		case errors.Is(err, errLeaseLost):
			stats.LeasesLost++
			w.logf("distbuild worker %s: lost lease on partition %d, re-leasing", cfg.Name, lease.Partition)
		case err != nil:
			return stats, err
		default:
			stats.PartitionsCounted++
		}
	}
}

// runLease counts one leased partition and uploads its shard. It returns
// errLeaseLost when the coordinator reassigned the partition mid-count.
// With a tracer configured, the whole lease runs under a count_partition
// span joined to the coordinator's build trace, so heartbeats and the
// shard upload carry the trace over the wire.
func (w *worker) runLease(ctx context.Context, lease LeaseResponse) (err error) {
	if w.cfg.Tracer != nil {
		ctx = observe.ContextWithTracer(ctx, w.cfg.Tracer)
		if sc, ok := observe.ParseTraceparent(lease.Traceparent); ok {
			ctx = observe.ContextWithRemoteParent(ctx, sc)
		}
		var end func()
		ctx, end = observe.RecorderSpan(ctx, "count_partition")
		observe.SetSpanAttr(ctx, "partition", strconv.Itoa(lease.Partition))
		observe.SetSpanAttr(ctx, "worker", w.cfg.Name)
		defer func() {
			if err != nil && !errors.Is(err, errLeaseLost) {
				observe.SetSpanError(ctx, err.Error())
			}
			end()
		}()
	}
	return w.countLease(ctx, lease)
}

// countLease is runLease's body, running under the lease span when
// tracing is enabled.
func (w *worker) countLease(ctx context.Context, lease LeaseResponse) error {
	if w.part == nil {
		part, err := pipeline.NewDirPartitioner(w.cfg.Dir, pipeline.DirConfig{HasHeader: lease.Build.HasHeader})
		if err != nil {
			return fmt.Errorf("distbuild: scanning corpus: %w", err)
		}
		w.part = part
	}
	if got, want := w.part.Fingerprint(), lease.Build.CorpusFingerprint; got != want {
		return fmt.Errorf("distbuild: local corpus fingerprint %q does not match the coordinator's %q — stale mount or divergent copy", got, want)
	}
	src, err := w.part.Open(pipeline.PartitionSpec{Index: lease.Partition, Count: lease.Partitions})
	if err != nil {
		return fmt.Errorf("distbuild: opening partition %d/%d: %w", lease.Partition, lease.Partitions, err)
	}
	opts := lease.Build.Count.Options(w.cfg.Workers)

	// Heartbeat from lease to acknowledged upload. Renewing through the
	// encode and upload tail matters: on a loaded machine that tail can
	// outlast the TTL, and a lease that silently lapsed mid-upload shows up
	// as a spurious expiry and invites another worker to recount a
	// partition whose shard is already in flight. A lost lease cancels the
	// count via cctx; the worker re-leases instead of finishing work nobody
	// wants.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost atomic.Bool
	hbDone := make(chan struct{})
	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-cctx.Done():
				return
			case <-tick.C:
				err := w.postJSON(cctx, PathHeartbeat, HeartbeatRequest{Worker: w.cfg.Name, Partition: lease.Partition}, nil)
				if err != nil && cctx.Err() == nil {
					// 410 or persistent failure: either way the lease
					// cannot be trusted to still be ours.
					lost.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	w.logf("distbuild worker %s: counting partition %d/%d", w.cfg.Name, lease.Partition, lease.Partitions)
	p, err := pipeline.CountPartial(cctx, src, opts)
	if err != nil {
		cancel()
		<-hbDone
		if lost.Load() && ctx.Err() == nil {
			return errLeaseLost
		}
		return fmt.Errorf("distbuild: counting partition %d: %w", lease.Partition, err)
	}
	// The heartbeat goroutine keeps renewing while the shard is encoded and
	// uploaded; it is stopped once the coordinator has acknowledged (a 410
	// in that window is expected — our own accepted upload completes the
	// partition — and harmless, since nothing consults cctx anymore).
	defer func() { cancel(); <-hbDone }()
	if p.Fingerprint != lease.Build.PartitionFingerprint {
		return fmt.Errorf("distbuild: counted partition %d carries fingerprint %q, lease promised %q", lease.Partition, p.Fingerprint, lease.Build.PartitionFingerprint)
	}

	var buf bytes.Buffer
	if err := pipeline.EncodePartial(&buf, p); err != nil {
		return fmt.Errorf("distbuild: encoding shard: %w", err)
	}
	// Upload under the parent context: even if the lease lapses mid-upload,
	// the coordinator accepts any correct shard.
	url := fmt.Sprintf("%s%s?partition=%d&worker=%s", w.cfg.Coordinator, PathShard, lease.Partition, w.cfg.Name)
	upCtx, endUpload := observe.RecorderSpan(ctx, "upload_shard")
	if err := w.do(upCtx, url, "application/octet-stream", buf.Bytes(), nil); err != nil {
		observe.SetSpanError(upCtx, err.Error())
		endUpload()
		return fmt.Errorf("distbuild: uploading partition %d: %w", lease.Partition, err)
	}
	endUpload()
	w.logf("distbuild worker %s: partition %d uploaded (%d columns, %d sample)", w.cfg.Name, lease.Partition, p.Columns, p.SampleSize())
	return nil
}

// postJSON is a retried JSON POST to a coordinator control endpoint.
func (w *worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return w.do(ctx, w.cfg.Coordinator+path, "application/json", body, out)
}

// do issues one coordinator call under the worker's retry policy and
// breaker. Every coordinator endpoint is idempotent, so a retried upload
// resending from byte zero is safe even when the original landed.
func (w *worker) do(ctx context.Context, url, contentType string, body []byte, out any) error {
	return w.call.Do(ctx, 1<<20, func(actx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", contentType)
		}
		return req, err
	}, func(resp *http.Response, raw []byte) error {
		switch resp.StatusCode {
		case http.StatusOK:
			if out != nil {
				if err := json.Unmarshal(raw, out); err != nil {
					// A torn or short response body is a network fault, not
					// a protocol violation; the request itself was already
					// processed, so re-asking is safe.
					return retry.Transient(fmt.Errorf("distbuild: bad coordinator response: %w", err))
				}
			}
			return nil
		case http.StatusNoContent:
			return nil
		case http.StatusGone:
			return fmt.Errorf("%w: %w", errLeaseLost, w.call.Refusal(resp.StatusCode, raw))
		default:
			return w.call.Refusal(resp.StatusCode, raw)
		}
	})
}

// sleep waits d honoring ctx.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/semantic"
)

// Cancellation causes, distinguished via context.Cause so the executor
// knows whether an interrupted job is terminally cancelled (client asked)
// or should stay resumable on disk (drain, process death).
var (
	errCancelRequested = errors.New("jobs: cancellation requested")
	errDraining        = errors.New("jobs: manager draining")
)

// Config parameterizes a Manager.
type Config struct {
	// Dir is the durable job directory (required).
	Dir string
	// Workers is the executor pool size (default 2).
	Workers int
	// MaxQueued bounds jobs waiting in the FIFO queue; submissions past
	// it fail with ErrQueueFull (default 64).
	MaxQueued int
	// JobTimeout bounds one executor pickup's wall-clock time; an expired
	// job transitions to failed (0 disables).
	JobTimeout time.Duration
	// Model snapshots the served model pair; called once per executor
	// pickup so a whole job scores against one consistent model even
	// across hot swaps (required; a nil detector fails the job).
	Model func() (*core.Detector, *semantic.Model)
	// Metrics receives the jobs_* families; nil exports none.
	Metrics *observe.Registry
	// Tracer, when set, records executor spans into its flight recorder
	// under the submitting request's trace (persisted in the spec), and
	// attaches trace IDs as job_column_seconds exemplars.
	Tracer *observe.Tracer
	// Logger receives lifecycle events (nil discards).
	Logger *slog.Logger
	// CheckpointHook, when set, runs after every durable per-column
	// checkpoint. It exists for tests — the chaos harness uses it to
	// trigger faultfs kill switches at exact checkpoint boundaries — and
	// must not block in production use.
	CheckpointHook func(jobID string, columnsDone int)
}

// Manager owns the bounded FIFO queue, the worker pool, and the durable
// store. Open recovers persisted jobs and starts the workers; Close
// drains them, leaving running jobs checkpointed for the next Open.
type Manager struct {
	cfg   Config
	store *Store
	obs   *jobsObs

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	queue      chan string
	wg         sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	depth     int // jobs currently in the queue channel
	seq       uint64
	running   map[string]context.CancelCauseFunc
	recovered int
}

// Open opens the durable store under cfg.Dir, re-enqueues every
// non-terminal job in submission order, and starts the worker pool. The
// workers stop when ctx is cancelled or Close is called; either way,
// in-flight jobs stay checkpointed and resume on the next Open.
func Open(ctx context.Context, cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if cfg.Model == nil {
		return nil, errors.New("jobs: Config.Model is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	store, err := OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		store:   store,
		obs:     newJobsObs(cfg.Metrics),
		running: make(map[string]context.CancelCauseFunc),
	}
	m.baseCtx, m.baseCancel = context.WithCancelCause(ctx)

	requeue, err := m.recover()
	if err != nil {
		return nil, err
	}
	// The channel must hold every recovered job plus a full new-submission
	// budget, so recovery can never block and admission (checked against
	// depth under mu) can never block either.
	m.queue = make(chan string, cfg.MaxQueued+len(requeue))
	for _, id := range requeue {
		m.queue <- id
	}
	m.depth = len(requeue)
	m.recovered = len(requeue)
	m.obs.depth.Set(float64(m.depth))

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if len(requeue) > 0 {
		m.logInfo("recovered persisted jobs", "requeued", len(requeue), "dir", cfg.Dir)
	}
	return m, nil
}

// recover scans the store and returns the non-terminal job IDs in
// submission (Seq) order. Jobs whose state file is missing or corrupt but
// whose spec is intact are reset to a fresh queued state — the spec is
// immutable and execution is deterministic, so restarting from column
// zero converges to the same findings. A corrupt spec is unrecoverable
// and the job is marked failed.
func (m *Manager) recover() ([]string, error) {
	ids, err := m.store.List()
	if err != nil {
		return nil, err
	}
	type pending struct {
		id  string
		seq uint64
	}
	var todo []pending
	for _, id := range ids {
		st, err := m.store.GetState(id)
		if err != nil {
			sp, specErr := m.store.GetSpec(id)
			if specErr != nil {
				m.logWarn("job unrecoverable: spec and state unreadable", "job", id, "error", specErr)
				m.writeFailed(id, 0, "spec and state corrupt on recovery")
				continue
			}
			m.logWarn("job state unreadable, restarting from scratch", "job", id, "error", err)
			st = &State{
				ID: id, Seq: sp.Seq, Status: StatusQueued,
				ColumnsTotal: sp.NumColumns(), SubmittedUnix: sp.SubmittedUnix,
			}
			if err := m.store.PutState(st); err != nil {
				return nil, err
			}
		}
		if st.Seq >= m.seq {
			m.seq = st.Seq + 1
		}
		if st.Status.Terminal() {
			continue
		}
		if _, err := m.store.GetSpec(id); err != nil {
			m.logWarn("job spec unreadable, failing job", "job", id, "error", err)
			m.writeFailed(id, st.Seq, "spec corrupt on recovery")
			continue
		}
		todo = append(todo, pending{id: id, seq: st.Seq})
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].seq < todo[j].seq })
	out := make([]string, len(todo))
	for i, p := range todo {
		out[i] = p.id
	}
	return out, nil
}

// writeFailed best-effort marks a job failed during recovery.
func (m *Manager) writeFailed(id string, seq uint64, msg string) {
	st := &State{
		ID: id, Seq: seq, Status: StatusFailed, Error: msg,
		FinishedUnix: time.Now().Unix(),
	}
	if err := m.store.PutState(st); err != nil {
		m.logWarn("could not persist failed state", "job", id, "error", err)
	}
	m.obs.failed.Inc()
}

// Submit validates, durably persists, and enqueues a new job, returning
// its initial state. The submitting context's span identity (if any) is
// persisted in the spec so the executor — now or after a restart —
// records the job's spans under the submission's trace. ErrQueueFull
// signals backpressure (the HTTP layer answers 429 + Retry-After);
// ErrClosed means the manager is draining.
func (m *Manager) Submit(ctx context.Context, columns map[string][]string, minConf float64) (*State, error) {
	return m.SubmitTable(ctx, columns, nil, minConf)
}

// SubmitTable is Submit with optional per-column semantic-domain hints
// (keys are column names, values domains semantic.KnownDomain accepts —
// the HTTP layer validates, this layer stores).
func (m *Manager) SubmitTable(ctx context.Context, columns map[string][]string, hints map[string]string, minConf float64) (*State, error) {
	if len(columns) == 0 {
		return nil, errors.New("jobs: empty table")
	}
	if len(hints) == 0 {
		hints = nil
	}
	return m.enqueueSpec(ctx, &Spec{Columns: columns, Hints: hints, MinConfidence: minConf})
}

// enqueueSpec is the shared admission tail of SubmitTable and SubmitDB:
// it assigns identity and sequence, persists spec then state, and
// enqueues under the backpressure cap.
func (m *Manager) enqueueSpec(ctx context.Context, sp *Spec) (*State, error) {
	id, err := newID()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.depth >= m.cfg.MaxQueued {
		return nil, ErrQueueFull
	}
	now := time.Now().Unix()
	sp.ID = id
	sp.Seq = m.seq
	sp.SubmittedUnix = now
	sp.Traceparent = observe.SpanContextFrom(ctx).Traceparent()
	st := &State{
		ID: id, Seq: m.seq, Status: StatusQueued,
		ColumnsTotal: sp.NumColumns(), SubmittedUnix: now,
	}
	// Spec before state: recovery rebuilds a missing state from the spec,
	// but a state without a spec is unexecutable.
	if err := m.store.PutSpec(sp); err != nil {
		return nil, err
	}
	if err := m.store.PutState(st); err != nil {
		return nil, err
	}
	m.seq++
	m.depth++
	m.obs.depth.Set(float64(m.depth))
	m.obs.submitted.Inc()
	m.queue <- id // never blocks: cap covers MaxQueued admissions
	return st, nil
}

// Get returns a job's durable state as of its last checkpoint.
func (m *Manager) Get(id string) (*State, error) {
	if !validID(id) {
		return nil, ErrNotFound
	}
	return m.store.GetState(id)
}

// List returns every stored job's state in submission order.
func (m *Manager) List() ([]*State, error) {
	ids, err := m.store.List()
	if err != nil {
		return nil, err
	}
	out := make([]*State, 0, len(ids))
	for _, id := range ids {
		st, err := m.store.GetState(id)
		if err != nil {
			continue // corrupt or concurrently deleted: omit from listings
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Cancel requests cancellation of a queued or running job. A queued job
// transitions to cancelled immediately; a running job's context is
// cancelled and its executor persists the terminal state at the next
// column boundary. ErrTerminal reports a job that already finished.
func (m *Manager) Cancel(id string) (*State, error) {
	if !validID(id) {
		return nil, ErrNotFound
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cancel, ok := m.running[id]; ok {
		st, err := m.store.GetState(id)
		if err != nil {
			return nil, err
		}
		// A persisted terminal state is final even while its executor
		// goroutine unwinds: the job finished, there is nothing to cancel.
		if st.Status.Terminal() {
			return st, ErrTerminal
		}
		cancel(errCancelRequested)
		// Report the requested transition; the executor persists it.
		st.Status = StatusCancelled
		return st, nil
	}
	st, err := m.store.GetState(id)
	if err != nil {
		return nil, err
	}
	if st.Status.Terminal() {
		return st, ErrTerminal
	}
	st.Status = StatusCancelled
	st.Error = "cancelled by client"
	st.FinishedUnix = time.Now().Unix()
	if err := m.store.PutState(st); err != nil {
		return nil, err
	}
	m.obs.cancelled.Inc()
	m.logInfo("job cancelled while queued", "job", id)
	return st, nil
}

// Delete removes a terminal job's record from disk. In-flight jobs must
// be cancelled first (ErrNotTerminal).
func (m *Manager) Delete(id string) error {
	if !validID(id) {
		return ErrNotFound
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The persisted state is authoritative: an executing job's state says
	// running (ErrNotTerminal below), and once a terminal state is
	// persisted the executor never writes again, so deletion is safe even
	// while its goroutine unwinds.
	st, err := m.store.GetState(id)
	if err != nil {
		return err
	}
	if !st.Status.Terminal() {
		return ErrNotTerminal
	}
	return m.store.Delete(id)
}

// QueueDepth reports the jobs currently waiting in the queue.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.depth
}

// Recovered reports how many persisted jobs Open re-enqueued.
func (m *Manager) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

// Close drains the manager: new submissions fail with ErrClosed, workers
// stop at the next column boundary (running jobs keep their durable
// checkpoint and resume on the next Open), and Close returns when every
// worker has exited or ctx expires.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.baseCancel(errDraining)
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain incomplete: %w", ctx.Err())
	}
}

// worker pops job IDs FIFO until the manager drains or dies.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		// Prefer exit once draining, even if jobs are still queued: they
		// are durable and will run on the next Open.
		if m.baseCtx.Err() != nil {
			return
		}
		select {
		case <-m.baseCtx.Done():
			return
		case id := <-m.queue:
			m.mu.Lock()
			m.depth--
			m.obs.depth.Set(float64(m.depth))
			m.mu.Unlock()
			m.runJob(id)
		}
	}
}

// runJob executes one job from its last durable checkpoint.
func (m *Manager) runJob(id string) {
	// Pickup happens under the manager lock so Cancel either sees the job
	// in m.running (and cancels the context we are about to use) or wrote
	// a terminal state we observe here — no window where a cancel is lost.
	m.mu.Lock()
	st, err := m.store.GetState(id)
	if errors.Is(err, ErrNotFound) {
		m.mu.Unlock()
		return // deleted while queued
	}
	if err != nil {
		// Torn on disk after enqueue: rebuild from the immutable spec.
		sp, specErr := m.store.GetSpec(id)
		if specErr != nil {
			m.mu.Unlock()
			m.logWarn("job unexecutable: state and spec unreadable", "job", id, "error", err)
			m.writeFailed(id, 0, "state and spec corrupt")
			return
		}
		m.logWarn("job state unreadable at pickup, restarting from scratch", "job", id, "error", err)
		st = &State{
			ID: id, Seq: sp.Seq, Status: StatusQueued,
			ColumnsTotal: sp.NumColumns(), SubmittedUnix: sp.SubmittedUnix,
		}
	}
	if st.Status.Terminal() {
		m.mu.Unlock()
		return // cancelled while queued
	}
	resumed := st.Status == StatusRunning
	jobCtx, cancel := context.WithCancelCause(m.baseCtx)
	m.running[id] = cancel
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.running, id)
		m.mu.Unlock()
		cancel(nil)
	}()

	sp, err := m.store.GetSpec(id)
	if err != nil {
		m.writeFailed(id, st.Seq, fmt.Sprintf("spec unreadable: %v", err))
		return
	}
	order := sp.ColumnOrder()
	// Defensive invariant check: progress must index into the audit
	// order, and results must align with it. CRC-valid-but-inconsistent
	// state restarts from scratch rather than producing garbage.
	if st.ColumnsDone < 0 || st.ColumnsDone > len(order) || len(st.Results) != st.ColumnsDone {
		m.logWarn("job checkpoint inconsistent, restarting from scratch",
			"job", id, "columns_done", st.ColumnsDone, "results", len(st.Results))
		st.ColumnsDone, st.Results, resumed = 0, nil, false
	}
	if resumed {
		st.Resumes++
		m.obs.resumed.Inc()
		m.logInfo("resuming job from checkpoint", "job", id,
			"columns_done", st.ColumnsDone, "columns_total", len(order))
	}

	st.Status = StatusRunning
	if st.StartedUnix == 0 {
		st.StartedUnix = time.Now().Unix()
	}
	if err := m.store.PutState(st); err != nil {
		m.logWarn("cannot persist running state", "job", id, "error", err)
		m.writeFailed(id, st.Seq, fmt.Sprintf("persisting state: %v", err))
		return
	}

	if m.cfg.JobTimeout > 0 {
		var cancelTimeout context.CancelFunc
		jobCtx, cancelTimeout = context.WithTimeout(jobCtx, m.cfg.JobTimeout)
		defer cancelTimeout()
	}

	m.obs.running.Add(1)
	defer m.obs.running.Add(-1)

	det, sem := m.cfg.Model()
	if det == nil {
		m.finish(st, StatusFailed, "no model loaded")
		return
	}

	ctx := observe.ContextWithRegistry(jobCtx, m.cfg.Metrics)
	// Rejoin the submitting request's trace (persisted in the spec), so a
	// job resumed after a crash still records under the original trace.
	if m.cfg.Tracer != nil {
		ctx = observe.ContextWithTracer(ctx, m.cfg.Tracer)
		if sc, ok := observe.ParseTraceparent(sp.Traceparent); ok {
			ctx = observe.ContextWithRemoteParent(ctx, sc)
		}
	}
	ctx, endJob := observe.Span(ctx, "job_execute")
	observe.SetSpanAttr(ctx, "job_id", id)
	if resumed {
		observe.SetSpanAttr(ctx, "resumed", "true")
	}
	if sp.DB != nil {
		observe.SetSpanAttr(ctx, "db_driver", sp.DB.Driver)
	}
	fetch := m.newFetcher(sp, order)
	defer fetch.close()
	traceID := observe.TraceIDFrom(ctx)
	start := time.Now()
	var execErr error
	for i := st.ColumnsDone; i < len(order); i++ {
		if jobCtx.Err() != nil {
			break
		}
		colStart := time.Now()
		colCtx, endCol := observe.Span(ctx, "job_column")
		observe.SetSpanAttr(colCtx, "column", order[i])
		values, ferr := fetch.values(jobCtx, i)
		if ferr != nil {
			endCol()
			// A context kill surfacing as a fetch error is an interrupt
			// (resume later), not a job failure.
			if jobCtx.Err() != nil {
				break
			}
			execErr = fmt.Errorf("fetching column %s: %w", order[i], ferr)
			break
		}
		fs := audit.CheckColumnHinted(ctx, det, sem, values, sp.MinConfidence, sp.Hints[order[i]])
		endCol()
		if source, table := fetch.provenance(i); source != "" || table != "" {
			for j := range fs {
				fs[j].Source = source
				fs[j].Table = table
			}
		}
		st.Results = append(st.Results, ColumnResult{Column: order[i], Findings: fs})
		st.ColumnsDone = i + 1
		if err := m.store.PutState(st); err != nil {
			execErr = fmt.Errorf("checkpointing column %d: %w", i, err)
			break
		}
		m.obs.colDur.ObserveExemplar(time.Since(colStart).Seconds(), traceID)
		if m.cfg.CheckpointHook != nil {
			m.cfg.CheckpointHook(id, st.ColumnsDone)
		}
	}
	if execErr != nil {
		observe.SetSpanError(ctx, execErr.Error())
	}
	endJob()
	m.obs.jobDur.Observe(time.Since(start).Seconds())

	switch {
	case execErr != nil:
		m.finish(st, StatusFailed, execErr.Error())
	case st.ColumnsDone == len(order):
		m.finish(st, StatusDone, "")
		m.logInfo("job done", "job", id, "columns", len(order),
			"findings", st.FindingsTotal(), "resumes", st.Resumes)
	default:
		cause := context.Cause(jobCtx)
		switch {
		case errors.Is(cause, errCancelRequested):
			m.finish(st, StatusCancelled, "cancelled by client")
			m.logInfo("job cancelled", "job", id, "columns_done", st.ColumnsDone)
		case errors.Is(cause, context.DeadlineExceeded):
			m.finish(st, StatusFailed, fmt.Sprintf("job exceeded %s deadline", m.cfg.JobTimeout))
			m.logWarn("job deadline exceeded", "job", id, "columns_done", st.ColumnsDone)
		default:
			// Drain or external kill: the last checkpoint already has
			// status running; the next Open resumes it from there.
			m.logInfo("job interrupted, checkpoint kept for resume",
				"job", id, "columns_done", st.ColumnsDone)
		}
	}
}

// finish persists a terminal transition and bumps the matching counter.
func (m *Manager) finish(st *State, status Status, errMsg string) {
	st.Status = status
	st.Error = errMsg
	st.FinishedUnix = time.Now().Unix()
	if err := m.store.PutState(st); err != nil {
		m.logWarn("cannot persist terminal state", "job", st.ID, "status", string(status), "error", err)
	}
	switch status {
	case StatusDone:
		m.obs.completed.Inc()
	case StatusFailed:
		m.obs.failed.Inc()
	case StatusCancelled:
		m.obs.cancelled.Inc()
	}
}

func (m *Manager) logInfo(msg string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Info(msg, args...)
	}
}

func (m *Manager) logWarn(msg string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Warn(msg, args...)
	}
}

// Command autodetectd serves a trained Auto-Detect model over HTTP — the
// "spell-checker for data" deployment mode — with a production-hardened
// lifecycle: graceful shutdown on SIGINT/SIGTERM, hot model reload on
// SIGHUP or POST /v1/admin/reload, liveness/readiness probes, and
// configurable load-shedding limits. Prometheus metrics are exposed on
// GET /metrics and all logs are structured (logfmt or JSON).
//
//	autodetectd -model model.bin -addr :8080
//	autodetectd -train-dir tables/ -addr :8080       # train on a CSV/TSV directory first
//	autodetectd -train -columns 10000 -addr :8080    # train on a synthetic corpus first
//	autodetectd -train-dsn "$DSN" -train-driver sqlite3 -addr :8080  # train straight from a database
//
// Endpoints:
//
//	GET  /v1/health
//	GET  /v1/livez
//	GET  /v1/readyz
//	GET  /metrics
//	POST /v1/check-column  {"values": ["2011-01-01", "2011/01/01", ...]}
//	POST /v1/check-table   {"columns": {"date": [...], "amount": [...]}}
//	POST /v1/check-pair    {"a": "72 kg", "b": "154 lbs"}
//	POST /v1/admin/reload
//
// With -jobs-dir set, the durable batch-audit API is mounted as well:
//
//	POST   /v1/jobs               submit a whole-table audit (202 + job id)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          poll status and progress
//	GET    /v1/jobs/{id}/results  page through findings
//	DELETE /v1/jobs/{id}          cancel / delete
//
// Jobs are checkpointed per column under -jobs-dir and survive restarts:
// a job interrupted by a crash or drain resumes from its last completed
// column on the next boot, with byte-identical findings.
//
// Distributed corpus builds run the internal/distbuild protocol instead of
// the serving stack and exit when the build completes:
//
//	autodetectd -build-coordinator -train-dir tables/ -build-state state/ \
//	    -build-out model.bin -addr :9090
//	autodetectd -build-worker http://coordinator:9090 -train-dir tables/
//
// The coordinator hands out partition leases, persists accepted shards
// under -build-state (its own restart resumes the build), merges them, and
// atomically writes the finalized model — byte-identical to a
// single-process `autodetect train` over the same directory and training
// flags. Workers that crash mid-partition lose their lease after
// -lease-ttl and the partition is reassigned. The coordinator serves
// behind the same hardening chain as the detection API, with admission,
// the request deadline and the body cap turned off.
//
// The versioned model registry connects producers to the serving fleet:
//
//	autodetectd -registry-serve -registry-dir registry/ -addr :9000
//	autodetectd -registry-url http://registry:9000 -addr :8080
//	autodetectd -build-coordinator ... -registry-url http://registry:9000
//
// -registry-serve runs the internal/registry store and HTTP API (publish,
// list, fetch with 304 deltas, pin/rollback) behind the same hardening
// chain as the detection API. Replicas started with -registry-url need no
// local model file: they poll the registry's pinned version every
// -registry-poll, download on change, verify the digest, and hot-swap
// through the same atomic path as /v1/admin/reload. A coordinator given
// -registry-url publishes the finalized model after writing -build-out.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dbsource"
	"repro/internal/distbuild"
	"repro/internal/distsup"
	"repro/internal/jobs"
	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/retry"
	"repro/internal/semantic"
	"repro/internal/service"
)

// loadModelFile reads and integrity-checks a serialized model, reporting
// its provenance (source "file" + content digest) alongside.
func loadModelFile(path string) (*core.Detector, service.ModelInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, service.ModelInfo{}, err
	}
	det, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, service.ModelInfo{}, err
	}
	sum := sha256.Sum256(raw)
	return det, service.ModelInfo{Source: "file", SHA256: hex.EncodeToString(sum[:])}, nil
}

// parseLevel maps the -log-level flag onto slog levels.
func parseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return l, nil
}

func main() {
	modelPath := flag.String("model", "", "trained model path (see cmd/autodetect train)")
	train := flag.Bool("train", false, "train an in-process model on a synthetic corpus instead")
	trainDir := flag.String("train-dir", "", "train at startup on the .csv/.tsv tables under this directory (streamed); SIGHUP or /v1/admin/reload retrains and hot-swaps")
	trainDSN := flag.String("train-dsn", "", "train at startup on every table.column of this SQL database (streamed in keyset pages); SIGHUP or /v1/admin/reload retrains and hot-swaps")
	trainDriver := flag.String("train-driver", dbsource.DriverName, "database/sql driver for -train-dsn (sqlite3, postgres, mysql, or the in-tree in-memory driver)")
	dbAudit := flag.Bool("db-audit", false, "accept whole-database audit submissions on POST /v1/jobs (the server dials the submitted DSN; requires -jobs-dir)")
	columns := flag.Int("columns", 10000, "synthetic corpus size when -train is set")
	pairs := flag.Int("pairs", 10000, "distant-supervision pairs per class when training in-process")
	workers := flag.Int("workers", runtime.NumCPU(), "pipeline parallelism for in-process training")
	sample := flag.Int("sample", 100000, "distant-supervision column sample cap for -train-dir (0 = keep all columns in memory)")
	maxBadFiles := flag.Int("max-bad-files", 0, "quarantine up to N unreadable/unparseable table files instead of failing (-train-dir)")
	maxBadFrac := flag.Float64("max-bad-frac", 0, "quarantine up to this fraction of table files instead of failing (-train-dir)")
	quarantineDir := flag.String("quarantine-dir", "", "directory for the quarantine manifest (quarantine.jsonl) when training from -train-dir")
	ioRetries := flag.Int("io-retries", 3, "attempts per table file for transient I/O errors; 1 disables retrying (-train-dir)")
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "random seed when -train is set")
	maxInflight := flag.Int("max-inflight", 256, "concurrent requests before shedding with 429 (0 disables); the upper bound of the adaptive admission limit")
	latencyTarget := flag.Duration("latency-target", 250*time.Millisecond, "latency the adaptive admission limit steers toward: slower completions shrink the limit, shedding background traffic first")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables); an inbound X-Deadline-Ms budget tightens it")
	maxModelStaleness := flag.Duration("max-model-staleness", 0, "/v1/readyz reports status=degraded (still 200) once the served model is older than this (0 disables)")
	maxBodyBytes := flag.Int64("max-body-bytes", 8<<20, "request body cap in bytes (0 disables)")
	maxTableValues := flag.Int("max-table-values", 100000, "total cell cap per /v1/check-table request or batch job (0 disables)")
	buildCoordinator := flag.Bool("build-coordinator", false, "coordinate a distributed corpus build over -train-dir instead of serving; exits once the model is written")
	buildWorkerURL := flag.String("build-worker", "", "join a distributed build as a worker against this coordinator URL; -train-dir must see the same corpus")
	buildPartitions := flag.Int("build-partitions", 16, "partition count for -build-coordinator (clamped to the corpus file count)")
	buildState := flag.String("build-state", "", "coordinator state directory: accepted shards persist here and a restarted coordinator resumes the build (-build-coordinator)")
	buildOut := flag.String("build-out", "model.bin", "finalized model output path (-build-coordinator)")
	buildSummary := flag.String("build-summary", "", "write a JSON build summary (wall clock, lease and shard counters) to this path (-build-coordinator)")
	leaseTTL := flag.Duration("lease-ttl", distbuild.DefaultLeaseTTL, "partition lease TTL; a worker silent this long loses its partition to reassignment (-build-coordinator)")
	registryServe := flag.Bool("registry-serve", false, "serve the versioned model registry instead of the detection API; needs -registry-dir")
	registryDir := flag.String("registry-dir", "", "registry storage directory (-registry-serve)")
	registryURL := flag.String("registry-url", "", "base URL of a model registry: serving replicas pull the pinned model from it (no local model needed); -build-coordinator publishes the finalized model to it")
	registryPoll := flag.Duration("registry-poll", registry.DefaultPoll, "pinned-version poll cadence when pulling from -registry-url")
	jobsDir := flag.String("jobs-dir", "", "durable batch-audit job directory; enables POST /v1/jobs (empty disables)")
	jobWorkers := flag.Int("job-workers", 2, "batch executor pool size (-jobs-dir)")
	maxQueuedJobs := flag.Int("max-queued-jobs", 64, "queued batch jobs before submissions shed with 429 (-jobs-dir)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job execution deadline; expired jobs fail (0 disables, -jobs-dir)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "connection-draining budget on shutdown")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof (off by default: profiles leak memory contents)")
	traceDebug := flag.Bool("trace-debug", false, "expose the in-process flight recorder under /debug/traces (off by default: traces carry request attributes)")
	traceSample := flag.Int("trace-sample", 0, "keep every Kth non-error, non-slow trace in the flight recorder (0 = recorder default, negative = errors and slowest only)")
	logFormat := flag.String("log-format", "text", "log output format: text (logfmt) or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "autodetectd:", err)
		os.Exit(2)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "autodetectd: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	// retry.Policy treats MaxAttempts<=0 as "use the default", so 0 would
	// silently mean 3 attempts; reject it rather than surprise the operator.
	if *ioRetries < 1 {
		fmt.Fprintln(os.Stderr, "autodetectd: -io-retries must be >= 1 (1 disables retrying)")
		os.Exit(2)
	}
	logger := observe.NewLogger(os.Stderr, observe.LogOptions{
		Component: "autodetectd",
		JSON:      *logFormat == "json",
		Level:     level,
	})
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	// One registry spans the process: serving metrics, pipeline builds and
	// hot-path counters all land on the same /metrics page.
	reg := observe.NewRegistry()

	// One tracer spans the process, too: every mode records spans into the
	// same flight recorder, every mode can expose it on /debug/traces, and
	// cross-process hops (coordinator→worker, publish→pull) carry the
	// trace in a traceparent header so one build or request is one
	// timeline across the fleet.
	recorder := observe.NewFlightRecorder(observe.RecorderConfig{SampleEvery: *traceSample})
	recorder.Register(reg)
	tracer := observe.NewTracer(recorder, nil)

	// The hardened HTTP stack every serving mode shares; each mode adds its
	// own tier and route rules.
	stack := resilience.StackConfig{
		MaxInFlight:    *maxInflight,
		LatencyTarget:  *latencyTarget,
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBodyBytes,
		Metrics:        reg,
		Logger:         logger,
		Tracer:         tracer,
		Pprof:          *enablePprof,
		TraceDebug:     *traceDebug,
	}
	ds := distsup.DefaultConfig()
	ds.PositivePairs, ds.NegativePairs = *pairs, *pairs
	ds.Seed = *seed
	trainCfg := core.DefaultTrainConfig()
	trainCfg.DistSup = ds
	buildOpts := pipeline.Options{
		Workers:       *workers,
		Train:         trainCfg,
		SampleColumns: *sample,
		Metrics:       reg,
	}

	// Distributed-build and registry modes replace the detection API: the
	// process serves one build to completion (or rides one out, as a
	// worker) and exits, or serves the registry until signalled.
	switch {
	case *buildCoordinator && *buildWorkerURL != "":
		fmt.Fprintln(os.Stderr, "autodetectd: -build-coordinator and -build-worker are mutually exclusive")
		os.Exit(2)
	case *registryServe && (*buildCoordinator || *buildWorkerURL != ""):
		fmt.Fprintln(os.Stderr, "autodetectd: -registry-serve and the build modes are mutually exclusive")
		os.Exit(2)
	case *registryServe:
		if *registryDir == "" {
			fmt.Fprintln(os.Stderr, "autodetectd: -registry-serve needs -registry-dir")
			os.Exit(2)
		}
		if err := runRegistryServer(logger, stack, *registryDir, *addr, *drainTimeout); err != nil {
			fatal("registry server failed", "error", err)
		}
		return
	case *buildCoordinator:
		if *trainDir == "" || *buildState == "" {
			fmt.Fprintln(os.Stderr, "autodetectd: -build-coordinator needs -train-dir and -build-state")
			os.Exit(2)
		}
		err := runBuildCoordinator(logger, stack, coordParams{
			TrainDir:    *trainDir,
			StateDir:    *buildState,
			Partitions:  *buildPartitions,
			LeaseTTL:    *leaseTTL,
			Addr:        *addr,
			Out:         *buildOut,
			Summary:     *buildSummary,
			RegistryURL: *registryURL,
			Drain:       *drainTimeout,
			Options:     buildOpts,
		})
		if err != nil {
			fatal("distributed build failed", "error", err)
		}
		return
	case *buildWorkerURL != "":
		if *trainDir == "" {
			fmt.Fprintln(os.Stderr, "autodetectd: -build-worker needs -train-dir (the local corpus copy)")
			os.Exit(2)
		}
		if err := runBuildWorker(logger, reg, tracer, *buildWorkerURL, *trainDir, *workers); err != nil {
			fatal("build worker failed", "error", err)
		}
		return
	}

	// build streams src through the sharded pipeline; every in-process
	// model, at startup and on each reload, is built here.
	build := func(src pipeline.ColumnSource, opts pipeline.Options, attrs ...any) (*core.Detector, error) {
		logger.Info("pipeline build starting", append(attrs, "workers", opts.Workers)...)
		res, err := pipeline.Run(context.Background(), src, opts)
		if err != nil {
			return nil, err
		}
		logger.Info("pipeline build done",
			"columns", res.Columns, "values", res.Values,
			"elapsed", res.Elapsed.Round(time.Millisecond).String(),
			"candidate_languages", res.Report.CandidateLanguages,
			"counted_languages", res.Report.CountedLanguages,
			"languages", len(res.Report.Selected), "model_bytes", res.Report.SelectedBytes)
		if res.FilesSkipped > 0 || res.ColumnsQuarantined > 0 {
			logger.Warn("degraded ingestion", "files_skipped", res.FilesSkipped,
				"columns_quarantined", res.ColumnsQuarantined, "quarantine_dir", *quarantineDir)
		}
		return res.Detector, nil
	}

	// One decision picks the model source. Its load function builds the
	// first model and, except for the one-off synthetic corpus, is the
	// reload hook behind SIGHUP and /v1/admin/reload: a file is re-read, a
	// directory rescanned, a database re-introspected.
	var load func() (*core.Detector, *semantic.Model, service.ModelInfo, error)
	reloadable := true
	switch {
	case *modelPath != "":
		load = func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			d, info, err := loadModelFile(*modelPath)
			return d, nil, info, err
		}
	case *trainDir != "":
		load = func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			src, err := pipeline.NewDirSourceWith(*trainDir, pipeline.DirConfig{
				HasHeader:     true,
				MaxBadFiles:   *maxBadFiles,
				MaxBadFrac:    *maxBadFrac,
				QuarantineDir: *quarantineDir,
				Retry:         retry.Policy{MaxAttempts: *ioRetries},
			})
			if err != nil {
				return nil, nil, service.ModelInfo{}, err
			}
			d, err := build(src, buildOpts, "files", src.Files(), "train_dir", *trainDir,
				"max_bad_files", *maxBadFiles, "max_bad_frac", *maxBadFrac, "io_retries", *ioRetries)
			return d, nil, service.ModelInfo{Source: "train-dir"}, err
		}
	case *trainDSN != "":
		load = func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			src, err := dbsource.NewSource(context.Background(), dbsource.Config{
				Driver:  *trainDriver,
				DSN:     *trainDSN,
				Retry:   retry.Policy{MaxAttempts: *ioRetries},
				Metrics: reg,
			})
			if err != nil {
				return nil, nil, service.ModelInfo{}, err
			}
			defer src.Close()
			d, err := build(src, buildOpts, "driver", *trainDriver,
				"db_columns", src.Len(), "schema_hash", src.SchemaHash())
			return d, nil, service.ModelInfo{Source: "train-dsn"}, err
		}
	case *train:
		reloadable = false
		load = func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			c := corpus.Generate(corpus.WebProfile(), *columns, *seed)
			opts := buildOpts
			opts.SampleColumns = 0 // -train keeps every column, as it always has: same model bytes
			d, err := build(pipeline.NewSliceSource(c.Columns), opts, "synthetic_columns", *columns)
			if err != nil {
				return nil, nil, service.ModelInfo{}, err
			}
			sem, err := semantic.Train(c, semantic.DefaultConfig())
			if err != nil {
				logger.Warn("semantic model unavailable", "error", err)
				sem = nil
			}
			return d, sem, service.ModelInfo{Source: "synthetic"}, nil
		}
	case *registryURL != "":
		// No local model: start not-ready and let the registry puller
		// deliver the first version; readyz flips once it applies.
		logger.Info("no local model; waiting for the registry's pinned version",
			"registry", *registryURL, "poll", registryPoll.String())
	default:
		fmt.Fprintln(os.Stderr, "autodetectd: need -model, -train-dir, -train-dsn, -train or -registry-url")
		os.Exit(2)
	}

	var det *core.Detector
	var sem *semantic.Model
	var initInfo service.ModelInfo
	if load != nil {
		det, sem, initInfo, err = load()
		if errors.Is(err, core.ErrCorruptModel) {
			fatal("refusing to serve corrupt model", "model", *modelPath, "error", err)
		}
		if err != nil {
			fatal("model load failed", "source", initInfo.Source, "error", err)
		}
		logger.Info("model loaded", "source", initInfo.Source,
			"languages", len(det.Languages()), "model_bytes", det.Bytes())
	}

	svc := service.NewWithInfo(det, sem, initInfo)
	svc.MaxInFlight = *maxInflight
	svc.LatencyTarget = *latencyTarget
	svc.RequestTimeout = *requestTimeout
	svc.MaxModelStaleness = *maxModelStaleness
	svc.MaxBodyBytes = *maxBodyBytes
	svc.MaxTableValues = *maxTableValues
	svc.Logger = logger
	svc.Metrics = reg
	svc.EnablePprof = *enablePprof
	svc.Tracer = tracer
	svc.EnableTraceDebug = *traceDebug
	if reloadable {
		svc.Reload = load
	}

	// Batch audit jobs: durable queue + executor under -jobs-dir. Opened
	// before the listener so jobs interrupted by the previous shutdown are
	// already re-enqueued when the first poll arrives.
	var jobMgr *jobs.Manager
	if *jobsDir != "" {
		jobMgr, err = jobs.Open(context.Background(), jobs.Config{
			Dir:        *jobsDir,
			Workers:    *jobWorkers,
			MaxQueued:  *maxQueuedJobs,
			JobTimeout: *jobTimeout,
			Model:      svc.Model,
			Metrics:    reg,
			Logger:     logger,
			Tracer:     tracer,
		})
		if err != nil {
			fatal("batch job manager failed to open", "jobs_dir", *jobsDir, "error", err)
		}
		svc.Jobs = jobMgr
		svc.AllowDBAudit = *dbAudit
		logger.Info("batch jobs enabled", "jobs_dir", *jobsDir, "db_audit", *dbAudit,
			"job_workers", *jobWorkers, "max_queued_jobs", *maxQueuedJobs,
			"job_timeout", jobTimeout.String(), "recovered", jobMgr.Recovered())
	}
	// Registry pulling: the puller polls the registry's pinned version and
	// hot-swaps through the same atomic path as /v1/admin/reload, and a
	// reload forces an immediate poll instead of re-reading the local
	// source.
	pullCtx, pullCancel := context.WithCancel(context.Background())
	defer pullCancel()
	if *registryURL != "" {
		// The pull path gets the full degradation kit: a breaker so a dead
		// registry costs one local rejection per poll instead of a retry
		// storm, and a retry budget bounding fleet-wide amplification. An
		// open breaker surfaces on /v1/readyz as degraded-but-serving.
		pullBreaker, pullRetry := guard("registry_pull", reg, logger, retry.Policy{})
		svc.DegradedCheck = func() []string {
			if pullBreaker.State() != resilience.BreakerClosed {
				return []string{"registry_breaker_open"}
			}
			return nil
		}
		puller, err := registry.NewPuller(registry.PullerConfig{
			URL:     *registryURL,
			Poll:    *registryPoll,
			Retry:   pullRetry,
			Breaker: pullBreaker,
			Apply: func(info registry.VersionInfo, raw []byte) error {
				d, err := core.Load(bytes.NewReader(raw))
				if err != nil {
					return err
				}
				return svc.SwapInfo(d, sem, service.ModelInfo{
					Version: info.Version, Source: "registry",
					SHA256: info.SHA256, PublishedUnixMs: info.PublishedUnixMs,
				})
			},
			Logf:    observe.Logf(logger, slog.LevelInfo),
			Metrics: reg,
			Tracer:  tracer,
		})
		if err != nil {
			fatal("registry puller setup failed", "registry", *registryURL, "error", err)
		}
		// The puller's Apply hook already swapped on change, so the reload's
		// follow-up swap just re-stores the model it reports on.
		svc.Reload = func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if _, _, err := puller.PullNow(ctx); err != nil {
				return nil, nil, service.ModelInfo{}, err
			}
			d, sm := svc.Model()
			if d == nil {
				return nil, nil, service.ModelInfo{}, errors.New("registry has no model published yet")
			}
			return d, sm, svc.Info(), nil
		}
		// The loop starts before the listener so a model-less replica
		// converges on the registry's pinned version as soon as it is up.
		go func() { _ = puller.Run(pullCtx) }()
	}

	// SIGHUP → the same reload-and-swap as /v1/admin/reload; the atomic
	// swap means in-flight requests keep their model snapshot.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if _, _, _, err := svc.ReloadNow("SIGHUP"); errors.Is(err, service.ErrNoReload) {
				logger.Warn("SIGHUP ignored: no -model file, -train-dir, -train-dsn or -registry-url to reload from")
			}
		}
	}()

	logger.Info("listening", "addr", *addr,
		"max_inflight", *maxInflight, "request_timeout", requestTimeout.String(),
		"max_body_bytes", *maxBodyBytes, "pprof", *enablePprof)
	err = listenAndDrain(logger, *addr, svc.Handler(), *drainTimeout, untilSignal)
	if jobMgr != nil {
		// Drain the executor after the listener: running jobs persist their
		// per-column checkpoint and resume on the next boot.
		jCtx, jCancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := jobMgr.Close(jCtx); err != nil {
			logger.Error("batch job drain incomplete", "error", err)
		}
		jCancel()
	}
	if err != nil {
		fatal("server failed", "error", err)
	}
	logger.Info("shutdown complete")
}

// listenAndDrain serves h on addr while work runs under a context that
// SIGINT/SIGTERM cancel. When work returns, the server drains connections
// for at most drain (then closes them) and work's error is returned; a
// listener failure returns at once. Every HTTP mode runs through here.
func listenAndDrain(logger *slog.Logger, addr string, h http.Handler, drain time.Duration, work func(ctx context.Context) error) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	workErr := make(chan error, 1)
	go func() { workErr <- work(ctx) }()
	var err error
	select {
	case err := <-serveErr:
		return fmt.Errorf("server failed: %w", err)
	case err = <-workErr:
	}
	if ctx.Err() != nil {
		logger.Info("shutdown signal received, draining connections", "drain_timeout", drain.String())
	}
	stop() // restore default signal handling: a second ^C kills immediately
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if serr := srv.Shutdown(shCtx); serr != nil {
		logger.Error("drain incomplete, forcing close", "error", serr)
		_ = srv.Close()
	}
	return err
}

// untilSignal is the work of a server that runs until SIGINT/SIGTERM.
func untilSignal(ctx context.Context) error {
	<-ctx.Done()
	return nil
}

// coordParams carries the -build-coordinator flag set.
type coordParams struct {
	TrainDir    string
	StateDir    string
	Partitions  int
	LeaseTTL    time.Duration
	Addr        string
	Out         string
	Summary     string
	RegistryURL string
	Drain       time.Duration
	Options     pipeline.Options
}

// buildSummary is the -build-summary payload (distbuild-summary.json in CI):
// the wall clock plus every fault-visibility counter, so a smoke harness
// can assert not just that the build finished but that reassignment and
// duplicate-handling actually happened.
type buildSummary struct {
	Partitions      int     `json:"partitions"`
	Restored        int     `json:"restored"`
	WallSeconds     float64 `json:"wall_seconds"`
	LeasesGranted   uint64  `json:"leases_granted"`
	LeasesExpired   uint64  `json:"leases_expired"`
	Reassignments   uint64  `json:"reassignments"`
	ShardsAccepted  uint64  `json:"shards_accepted"`
	ShardsDuplicate uint64  `json:"shards_duplicate"`
	ShardsRejected  uint64  `json:"shards_rejected"`
	Languages       int     `json:"languages"`
	ModelBytes      int     `json:"model_bytes"`
}

// runBuildCoordinator drives one distributed build end to end: serve the
// distbuild protocol on addr behind the shared hardened stack, wait until
// every partition's shard is accepted, merge and finalize, atomically
// write the model, then drain. SIGINT/SIGTERM abort the build; accepted
// shards stay under StateDir, so rerunning the same command resumes where
// it stopped.
func runBuildCoordinator(logger *slog.Logger, stack resilience.StackConfig, p coordParams) error {
	part, err := pipeline.NewDirPartitioner(p.TrainDir, pipeline.DirConfig{HasHeader: true})
	if err != nil {
		return err
	}
	reg := stack.Metrics
	coord, err := distbuild.NewCoordinator(part, distbuild.CoordinatorConfig{
		StateDir:   p.StateDir,
		Partitions: p.Partitions,
		LeaseTTL:   p.LeaseTTL,
		Options:    p.Options,
		Metrics:    reg,
		Tracer:     stack.Tracer,
		Logf:       observe.Logf(logger, slog.LevelInfo),
	})
	if err != nil {
		return err
	}
	// Finalize the build's root span no matter how the build ends, so the
	// trace lands in the flight recorder (EndTrace is idempotent).
	defer coord.EndTrace()
	// Shard uploads are large and a lease must never be shed or cut short
	// mid-build, so admission, the deadline and the body cap stay off; the
	// coordinator keeps recovery, request IDs, metrics and access logs.
	stack.MaxInFlight, stack.RequestTimeout, stack.MaxBodyBytes = 0, 0, 0
	stack.Route = distbuild.RouteLabel
	logger.Info("build coordinator listening", "addr", p.Addr,
		"partitions", coord.Partitions(), "restored", coord.Restored(),
		"lease_ttl", p.LeaseTTL.String(), "state_dir", p.StateDir)

	start := time.Now()
	return listenAndDrain(logger, p.Addr, resilience.Stack(coord.Handler(), stack), p.Drain, func(ctx context.Context) error {
		if err := coord.Wait(ctx); err != nil {
			logger.Warn("build interrupted; accepted shards persist, rerun to resume",
				"state_dir", p.StateDir, "status", fmt.Sprintf("%+v", coord.Status()))
			return err
		}
		// The server stays up while finalizing: lingering workers still
		// polling for leases hear "done" and exit cleanly instead of
		// retrying into a wall.
		det, rep, err := coord.BuildModel(context.Background())
		if err != nil {
			return err
		}
		if err := atomicio.WriteTo(p.Out, 0o644, det.Save); err != nil {
			return err
		}
		if p.RegistryURL != "" {
			// Publish the finalized model so the serving fleet picks it up.
			// Idempotent: a rerun of a finished build re-uploads the same
			// bytes and is acknowledged as a duplicate. The publish rides the
			// build trace: the registry persists the injected traceparent,
			// and every replica's hot-swap span joins this build's timeline.
			var buf bytes.Buffer
			if err := det.Save(&buf); err != nil {
				return err
			}
			fp := pipeline.BuildFingerprint(part.Fingerprint(), p.Options)
			pubBreaker, pubRetry := guard("registry_publish", reg, logger, retry.Policy{MaxAttempts: 10})
			pubCtx, endPublish := observe.RecorderSpan(coord.TraceContext(), "publish_model")
			pres, err := registry.PublishModel(pubCtx, p.RegistryURL, buf.Bytes(), fp, "distbuild",
				registry.PublishOptions{Retry: pubRetry, Breaker: pubBreaker})
			if err != nil {
				observe.SetSpanError(pubCtx, err.Error())
				endPublish()
				return fmt.Errorf("model written to %s but registry publish failed: %w", p.Out, err)
			}
			endPublish()
			logger.Info("model published to registry", "registry", p.RegistryURL,
				"version", pres.Version, "status", pres.Status, "current", pres.Current,
				"sha256", pres.SHA256)
		}
		// Finalize the build trace now — while the server is still up — so
		// the completed timeline is visible on /debug/traces before drain.
		coord.EndTrace()
		st := coord.Status()
		sum := buildSummary{
			Partitions:      st.Partitions,
			Restored:        coord.Restored(),
			WallSeconds:     time.Since(start).Seconds(),
			LeasesGranted:   st.LeasesGranted,
			LeasesExpired:   st.LeasesExpired,
			Reassignments:   st.Reassignments,
			ShardsAccepted:  st.ShardsAccepted,
			ShardsDuplicate: st.ShardsDuplicate,
			ShardsRejected:  st.ShardsRejected,
			Languages:       len(rep.Selected),
			ModelBytes:      rep.SelectedBytes,
		}
		logger.Info("distributed build complete", "out", p.Out,
			"partitions", sum.Partitions, "restored", sum.Restored,
			"leases_granted", sum.LeasesGranted, "leases_expired", sum.LeasesExpired,
			"reassignments", sum.Reassignments, "shards_accepted", sum.ShardsAccepted,
			"shards_duplicate", sum.ShardsDuplicate, "shards_rejected", sum.ShardsRejected,
			"languages", sum.Languages, "model_bytes", sum.ModelBytes,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
		if p.Summary == "" {
			return nil
		}
		raw, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		return atomicio.WriteFile(p.Summary, raw, 0o644)
	})
}

// runBuildWorker joins a distributed build and works until the coordinator
// reports it complete. The generous retry budget is deliberate: a worker
// should ride out a coordinator restart, not die during one.
func runBuildWorker(logger *slog.Logger, reg *observe.Registry, tracer *observe.Tracer, coordinator, dir string, workers int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("build worker starting", "coordinator", coordinator, "dir", dir, "workers", workers)
	breaker, pol := guard("distbuild_worker", reg, logger, retry.Policy{MaxAttempts: 10})
	st, err := distbuild.RunWorker(ctx, distbuild.WorkerConfig{
		Coordinator: coordinator,
		Dir:         dir,
		Workers:     workers,
		Retry:       pol,
		Breaker:     breaker,
		Tracer:      tracer,
		Logf:        observe.Logf(logger, slog.LevelInfo),
	})
	if err != nil {
		return err
	}
	logger.Info("build worker done", "partitions_counted", st.PartitionsCounted,
		"leases_lost", st.LeasesLost, "waits", st.Waits, "breaker_waits", st.BreakerWaits)
	return nil
}

// guard builds the breaker and the retry budget that protect one outbound
// dependency, both labelled name in the metrics, and returns pol spending
// from that budget.
func guard(name string, reg *observe.Registry, logger *slog.Logger, pol retry.Policy) (*resilience.Breaker, retry.Policy) {
	pol.Budget = resilience.NewRetryBudget(resilience.BudgetConfig{Name: name, Metrics: reg})
	return resilience.NewBreaker(resilience.BreakerConfig{
		Name:    name,
		Metrics: reg,
		Logf:    observe.Logf(logger, slog.LevelWarn),
	}), pol
}

// runRegistryServer serves the versioned model registry until
// SIGINT/SIGTERM. The store rescans its directory on open — re-verifying
// every stored version's digest and quarantining corrupt ones — so a
// restarted registry never serves bytes it cannot vouch for. The API sits
// behind the same hardened stack as the detection service.
func runRegistryServer(logger *slog.Logger, stack resilience.StackConfig, dir, addr string, drain time.Duration) error {
	store, err := registry.Open(dir, registry.Options{
		Metrics: stack.Metrics,
		Logf:    observe.Logf(logger, slog.LevelInfo),
	})
	if err != nil {
		return err
	}
	cur, pinned, versions := store.List()
	logger.Info("registry open", "dir", dir, "versions", len(versions),
		"current", cur, "pinned", pinned)
	stack.Tier = registry.Tier
	stack.Route = registry.RouteLabel
	logger.Info("registry listening", "addr", addr,
		"max_inflight", stack.MaxInFlight, "request_timeout", stack.RequestTimeout.String(),
		"max_body_bytes", stack.MaxBodyBytes)
	if err := listenAndDrain(logger, addr, resilience.Stack(registry.NewServer(store).Handler(), stack), drain, untilSignal); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}

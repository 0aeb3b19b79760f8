// Command autodetectd serves a trained Auto-Detect model over HTTP — the
// "spell-checker for data" deployment mode — with a production-hardened
// lifecycle: graceful shutdown on SIGINT/SIGTERM, hot model reload on
// SIGHUP or POST /v1/admin/reload, liveness/readiness probes, load
// shedding, Prometheus metrics on GET /metrics, and structured logs.
//
// A mode flag picks one of four modes (serving has none). Each mode
// parses only its own flags, which -h lists; a flag of another mode, or
// two mode flags, exit 2.
//
//	autodetectd -model model.bin -addr :8080
//	autodetectd -train-dir tables/ -addr :8080       # train on a CSV/TSV directory first
//	autodetectd -train -columns 10000 -addr :8080    # train on a synthetic corpus first
//	autodetectd -train-dsn "$DSN" -train-driver sqlite3 -addr :8080  # train straight from a database
//	autodetectd -registry-url http://registry:9000 -addr :8080       # follow a model registry
//
// Serving reads -model -train -train-dir -train-dsn -train-driver -columns
// -registry-url -registry-poll -jobs-dir -job-workers -max-queued-jobs
// -job-timeout -db-audit -max-table-values -max-model-staleness, the build,
// admission and HTTP flags. It serves /v1/check-column, /v1/check-table,
// /v1/check-pair, /v1/health, /v1/livez, /v1/readyz and /v1/admin/reload,
// and with -jobs-dir the durable batch audits of /v1/jobs.
//
// Distributed corpus builds run the internal/distbuild protocol and exit
// when the build completes:
//
//	autodetectd -build-coordinator -train-dir tables/ -build-state state/ \
//	    -build-out model.bin -addr :9090 [-registry-url http://registry:9000]
//	autodetectd -build-worker http://coordinator:9090 -train-dir tables/
//
// The coordinator reads -train-dir -build-state -build-partitions
// -build-out -build-summary -lease-ttl -registry-url, the count and HTTP
// flags. It leases partitions, reassigns those of workers silent for
// -lease-ttl, resumes from the shards under -build-state, and writes (and
// publishes to -registry-url) a model byte-identical to `autodetect train`
// over the same corpus and count flags. It serves with admission, the
// deadline and the body cap off. A worker reads -train-dir -workers
// -log-format -log-level.
//
// The versioned model registry connects builds to the serving fleet:
//
//	autodetectd -registry-serve -registry-dir registry/ -addr :9000
//
// It reads -registry-dir, the admission and HTTP flags.
//
// The count flags are -workers -pairs -seed -sample; the build flags add
// -max-bad-files -max-bad-frac -quarantine-dir -io-retries. The admission
// flags are -max-inflight -latency-target -request-timeout -max-body-bytes;
// the HTTP flags -addr -drain-timeout -pprof -trace-debug -trace-sample
// -log-format -log-level.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dbsource"
	"repro/internal/distbuild"
	"repro/internal/jobs"
	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/retry"
	"repro/internal/semantic"
	"repro/internal/service"
)

// The modes. Each but serve is chosen by the flag of its name.
const (
	modeServe       = "serve"
	modeCoordinator = "build-coordinator"
	modeWorker      = "build-worker"
	modeRegistry    = "registry-serve"
)

// modes holds, per mode, its run, the message logged when the run fails,
// and the flags it must be given.
var modes = map[string]struct {
	run     func(*config) error
	failure string
	needs   []string
}{
	modeServe:       {runServe, "server failed", nil},
	modeCoordinator: {runBuildCoordinator, "distributed build failed", []string{"train-dir", "build-state"}},
	modeWorker:      {runBuildWorker, "build worker failed", []string{"train-dir"}},
	modeRegistry:    {runRegistryServer, "registry server failed", []string{"registry-dir"}},
}

// config is one parsed command line; a mode's flags fill only the fields
// it reads, binding straight into the library configs where they can.
type config struct {
	mode, logFormat       string
	level                 slog.Level
	addr                  string
	drain                 time.Duration
	traceSample           int
	stack                 resilience.StackConfig
	build                 pipeline.BuildFlags
	trainDir, registryURL string

	modelPath, trainDSN, trainDriver    string
	train, dbAudit                      bool
	columns, maxTableValues             int
	maxModelStaleness, registryPoll     time.Duration
	jobs                                jobs.Config
	coord                               distbuild.CoordinatorConfig
	buildOut, buildSummary, registryDir string
	worker                              distbuild.WorkerConfig
}

// modeOf finds the mode flag in args before parsing, in the -x, --x and
// -x=v forms; -x=false selects nothing, so serving rejects it.
func modeOf(args []string) (string, error) {
	seen := map[string]bool{}
	for _, a := range args {
		if a == "--" {
			break
		}
		name, val, hasVal := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-"), "=")
		on, err := strconv.ParseBool(val)
		switch {
		case !strings.HasPrefix(a, "-"):
		case name == modeWorker, (name == modeCoordinator || name == modeRegistry) && (!hasVal || on || err != nil):
			seen[name] = true
		}
	}
	switch {
	case seen[modeCoordinator] && seen[modeWorker]:
		return "", errors.New("-build-coordinator and -build-worker are mutually exclusive")
	case seen[modeRegistry] && (seen[modeCoordinator] || seen[modeWorker]):
		return "", errors.New("-registry-serve and the build modes are mutually exclusive")
	}
	for m := range seen {
		return m, nil
	}
	return modeServe, nil
}

// register defines the flags of c's mode on fs.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text (logfmt) or json")
	fs.TextVar(&c.level, "log-level", slog.LevelInfo, "minimum log `level`: debug, info, warn or error")
	if c.mode == modeWorker {
		fs.StringVar(&c.worker.Coordinator, "build-worker", "", "join the distributed build of the coordinator at this URL; exits once the build is done")
		fs.StringVar(&c.worker.Dir, "train-dir", "", "the local copy of the coordinator's corpus; it must fingerprint the same")
		c.build.RegisterWorkers(fs)
		return
	}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&c.drain, "drain-timeout", 10*time.Second, "connection-draining budget on shutdown")
	fs.BoolVar(&c.stack.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof (off by default: profiles leak memory contents)")
	fs.BoolVar(&c.stack.TraceDebug, "trace-debug", false, "expose the in-process flight recorder under /debug/traces (off by default: traces carry request attributes)")
	fs.IntVar(&c.traceSample, "trace-sample", 0, "keep every Kth non-error, non-slow trace in the flight recorder (0 = recorder default, negative = errors and slowest only)")
	if c.mode == modeCoordinator {
		fs.Bool(modeCoordinator, false, "coordinate a distributed corpus build over -train-dir instead of serving; exits once the model is written")
		fs.StringVar(&c.trainDir, "train-dir", "", "the corpus directory to partition; every worker's -train-dir must hold the same corpus")
		fs.StringVar(&c.coord.StateDir, "build-state", "", "state directory: accepted shards persist here and a restarted coordinator resumes the build")
		fs.IntVar(&c.coord.Partitions, "build-partitions", 16, "partition count (clamped to the corpus file count)")
		fs.StringVar(&c.buildOut, "build-out", "model.bin", "finalized model output path")
		fs.StringVar(&c.buildSummary, "build-summary", "", "write a JSON build summary (wall clock, lease and shard counters) to this path")
		fs.DurationVar(&c.coord.LeaseTTL, "lease-ttl", distbuild.DefaultLeaseTTL, "partition lease TTL; a worker silent this long loses its partition to reassignment")
		fs.StringVar(&c.registryURL, "registry-url", "", "base URL of a model registry to publish the finalized model to")
		c.build.RegisterCount(fs)
		return
	}
	fs.IntVar(&c.stack.MaxInFlight, "max-inflight", 256, "concurrent requests before shedding with 429 (0 disables); the upper bound of the adaptive admission limit")
	fs.DurationVar(&c.stack.LatencyTarget, "latency-target", 250*time.Millisecond, "latency the adaptive admission limit steers toward: slower completions shrink the limit, shedding background traffic first")
	fs.DurationVar(&c.stack.RequestTimeout, "request-timeout", 30*time.Second, "per-request deadline (0 disables); an inbound X-Deadline-Ms budget tightens it")
	fs.Int64Var(&c.stack.MaxBodyBytes, "max-body-bytes", 8<<20, "request body cap in bytes (0 disables)")
	if c.mode == modeRegistry {
		fs.Bool(modeRegistry, false, "serve the versioned model registry instead of the detection API; needs -registry-dir")
		fs.StringVar(&c.registryDir, "registry-dir", "", "registry storage directory")
		return
	}
	fs.StringVar(&c.modelPath, "model", "", "trained model path (see cmd/autodetect train)")
	fs.BoolVar(&c.train, "train", false, "train an in-process model on a synthetic corpus instead")
	fs.StringVar(&c.trainDir, "train-dir", "", "train at startup on the .csv/.tsv tables under this directory (streamed); SIGHUP or /v1/admin/reload retrains and hot-swaps")
	fs.StringVar(&c.trainDSN, "train-dsn", "", "train at startup on every table.column of this SQL database (streamed in keyset pages); SIGHUP or /v1/admin/reload retrains and hot-swaps")
	fs.StringVar(&c.trainDriver, "train-driver", dbsource.DriverName, "database/sql driver for -train-dsn (sqlite3, postgres, mysql, or the in-tree in-memory driver)")
	fs.IntVar(&c.columns, "columns", 10000, "synthetic corpus size when -train is set")
	fs.BoolVar(&c.dbAudit, "db-audit", false, "accept whole-database audit submissions on POST /v1/jobs (the server dials the submitted DSN; requires -jobs-dir)")
	fs.IntVar(&c.maxTableValues, "max-table-values", 100000, "total cell cap per /v1/check-table request or batch job (0 disables)")
	fs.DurationVar(&c.maxModelStaleness, "max-model-staleness", 0, "/v1/readyz reports status=degraded (still 200) once the served model is older than this (0 disables)")
	fs.StringVar(&c.registryURL, "registry-url", "", "base URL of a model registry to pull the pinned model from (no local model needed)")
	fs.DurationVar(&c.registryPoll, "registry-poll", registry.DefaultPoll, "pinned-version poll cadence when pulling from -registry-url")
	fs.StringVar(&c.jobs.Dir, "jobs-dir", "", "durable batch-audit job directory; enables POST /v1/jobs (empty disables)")
	fs.IntVar(&c.jobs.Workers, "job-workers", 2, "batch executor pool size (-jobs-dir)")
	fs.IntVar(&c.jobs.MaxQueued, "max-queued-jobs", 64, "queued batch jobs before submissions shed with 429 (-jobs-dir)")
	fs.DurationVar(&c.jobs.JobTimeout, "job-timeout", 0, "per-job execution deadline; expired jobs fail (0 disables, -jobs-dir)")
	c.build.RegisterCount(fs)
	c.build.RegisterIngest(fs)
}

// check validates a parsed command line.
func (c *config) check(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.logFormat != "text" && c.logFormat != "json" {
		return fmt.Errorf("bad -log-format %q (want text or json)", c.logFormat)
	}
	for _, name := range modes[c.mode].needs {
		if fs.Lookup(name).Value.String() == "" {
			return fmt.Errorf("-%s needs -%s", c.mode, name)
		}
	}
	if c.mode != modeServe {
		return nil
	}
	if c.modelPath == "" && c.trainDir == "" && c.trainDSN == "" && !c.train && c.registryURL == "" {
		return errors.New("need -model, -train-dir, -train-dsn, -train or -registry-url")
	}
	return c.build.Check()
}

// parseArgs parses a command line into its mode's config without running
// anything, and reports any error on output; flag.ErrHelp means -h
// printed the mode's flags.
func parseArgs(args []string, output io.Writer) (*config, error) {
	mode, err := modeOf(args)
	c := &config{mode: mode, build: pipeline.BuildFlags{
		Workers: runtime.NumCPU(), Pairs: 10000, Seed: 1, Sample: 100000, IORetries: 3,
	}}
	fs := flag.NewFlagSet(strings.TrimSuffix("autodetectd -"+mode, " -"+modeServe), flag.ContinueOnError)
	fs.SetOutput(output)
	if err == nil {
		c.register(fs)
		if err = fs.Parse(args); err != nil {
			return nil, err // the flag set reported it
		}
		err = c.check(fs)
	}
	if err != nil {
		fmt.Fprintln(output, "autodetectd:", err)
		return nil, err
	}
	return c, nil
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	logger := observe.NewLogger(os.Stderr, observe.LogOptions{Component: "autodetectd", JSON: c.logFormat == "json", Level: c.level})
	// One metrics registry and one tracer span the process. Cross-process
	// hops (coordinator→worker, publish→pull) carry the trace in a
	// traceparent header, so one build or request is one fleet timeline.
	reg := observe.NewRegistry()
	recorder := observe.NewFlightRecorder(observe.RecorderConfig{SampleEvery: c.traceSample})
	recorder.Register(reg)
	c.stack.Metrics, c.stack.Logger, c.stack.Tracer = reg, logger, observe.NewTracer(recorder, nil)

	m := modes[c.mode]
	if err := m.run(c); err != nil {
		fatal(logger, m.failure, "error", err)
	}
}

// fatal logs msg and exits 1.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

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

// logValueModel logs, on every model load and swap, whether the value-level
// detector is on and with how many supported values and pairs, or why it
// is off.
func logValueModel(logger *slog.Logger, sem *semantic.Model, off string) {
	if sem == nil {
		logger.Info("value-level detector off", "reason", off)
		return
	}
	logger.Info("value-level detector on",
		"supported_values", sem.SupportedValues(), "supported_pairs", sem.SupportedPairs())
}

// modelSource picks the model source. Its load function builds the first
// model and, except for the one-off synthetic corpus (reloadable false),
// is the reload hook behind SIGHUP and /v1/admin/reload: a file is
// re-read, a directory rescanned, a database re-introspected. It is nil
// for a replica that waits on its registry.
func modelSource(c *config, logger *slog.Logger) (load func() (*core.Detector, *semantic.Model, service.ModelInfo, error), reloadable bool) {
	buildOpts := c.build.Options()
	buildOpts.Metrics = c.stack.Metrics

	// build streams src through the sharded pipeline; every in-process
	// model, at startup and on each reload, is built here, the value-level
	// model from the same count.
	build := func(src pipeline.ColumnSource, opts pipeline.Options, attrs ...any) (*core.Detector, *semantic.Model, error) {
		logger.Info("pipeline build starting", append(attrs, "workers", opts.Workers)...)
		res, err := pipeline.Run(context.Background(), src, opts)
		if err != nil {
			return nil, nil, err
		}
		logger.Info("pipeline build done",
			"columns", res.Columns, "values", res.Values,
			"elapsed", res.Elapsed.Round(time.Millisecond).String(),
			"candidate_languages", res.Report.CandidateLanguages,
			"counted_languages", res.Report.CountedLanguages,
			"languages", len(res.Report.Selected), "model_bytes", res.Report.SelectedBytes)
		if res.FilesSkipped > 0 || res.ColumnsQuarantined > 0 {
			logger.Warn("degraded ingestion", "files_skipped", res.FilesSkipped,
				"columns_quarantined", res.ColumnsQuarantined, "quarantine_dir", c.build.QuarantineDir)
		}
		sem, off := res.Semantic, "Leaf is not among the counted languages"
		if sem != nil && sem.SupportedValues() == 0 {
			sem, off = nil, "no value reached MinSupport"
		}
		logValueModel(logger, sem, off)
		return res.Detector, sem, nil
	}

	switch {
	case c.modelPath != "":
		return func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			d, info, err := loadModelFile(c.modelPath)
			if err == nil {
				logValueModel(logger, nil, "the model file carries no value statistics")
			}
			return d, nil, info, err
		}, true
	case c.trainDir != "":
		return func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			src, err := pipeline.NewDirSourceWith(c.trainDir, c.build.DirConfig(true))
			if err != nil {
				return nil, nil, service.ModelInfo{}, err
			}
			d, sem, err := build(src, buildOpts, "files", src.Files(), "train_dir", c.trainDir,
				"max_bad_files", c.build.MaxBadFiles, "max_bad_frac", c.build.MaxBadFrac, "io_retries", c.build.IORetries)
			return d, sem, service.ModelInfo{Source: "train-dir"}, err
		}, true
	case c.trainDSN != "":
		return func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			src, err := dbsource.NewSource(context.Background(), dbsource.Config{
				Driver:  c.trainDriver,
				DSN:     c.trainDSN,
				Retry:   c.build.Retry(),
				Metrics: c.stack.Metrics,
			})
			if err != nil {
				return nil, nil, service.ModelInfo{}, err
			}
			defer src.Close()
			d, sem, err := build(src, buildOpts, "driver", c.trainDriver,
				"db_columns", src.Len(), "schema_hash", src.SchemaHash())
			return d, sem, service.ModelInfo{Source: "train-dsn"}, err
		}, true
	case c.train:
		return func() (*core.Detector, *semantic.Model, service.ModelInfo, error) {
			corp := corpus.Generate(corpus.WebProfile(), c.columns, c.build.Seed)
			opts := buildOpts
			opts.SampleColumns = 0 // -train keeps every column, as it always has: same model bytes
			d, sem, err := build(pipeline.NewSliceSource(corp.Columns), opts, "synthetic_columns", c.columns)
			return d, sem, service.ModelInfo{Source: "synthetic"}, err
		}, false
	}
	return nil, false
}

// runServe serves the detection API until SIGINT/SIGTERM.
func runServe(c *config) error {
	logger, reg, tracer := c.stack.Logger, c.stack.Metrics, c.stack.Tracer
	load, reloadable := modelSource(c, logger)
	if load == nil {
		// -registry-url with no local model: start not-ready and let the
		// puller deliver the first version; readyz flips once it applies.
		logger.Info("no local model; waiting for the registry's pinned version",
			"registry", c.registryURL, "poll", c.registryPoll.String())
	}

	var det *core.Detector
	var sem *semantic.Model
	var initInfo service.ModelInfo
	if load != nil {
		var err error
		det, sem, initInfo, err = load()
		if errors.Is(err, core.ErrCorruptModel) {
			fatal(logger, "refusing to serve corrupt model", "model", c.modelPath, "error", err)
		}
		if err != nil {
			fatal(logger, "model load failed", "source", initInfo.Source, "error", err)
		}
		logger.Info("model loaded", "source", initInfo.Source,
			"languages", len(det.Languages()), "model_bytes", det.Bytes())
	}

	svc := service.NewWithInfo(det, sem, initInfo)
	svc.MaxInFlight = c.stack.MaxInFlight
	svc.LatencyTarget = c.stack.LatencyTarget
	svc.RequestTimeout = c.stack.RequestTimeout
	svc.MaxModelStaleness = c.maxModelStaleness
	svc.MaxBodyBytes = c.stack.MaxBodyBytes
	svc.MaxTableValues = c.maxTableValues
	svc.Logger = logger
	svc.Metrics = reg
	svc.EnablePprof = c.stack.Pprof
	svc.Tracer = tracer
	svc.EnableTraceDebug = c.stack.TraceDebug
	if reloadable {
		svc.Reload = load
	}

	// Batch audit jobs: durable queue + executor under -jobs-dir. Opened
	// before the listener so jobs interrupted by the previous shutdown are
	// already re-enqueued when the first poll arrives.
	var jobMgr *jobs.Manager
	if jc := c.jobs; jc.Dir != "" {
		jc.Model, jc.Metrics, jc.Logger, jc.Tracer = svc.Model, reg, logger, tracer
		var err error
		if jobMgr, err = jobs.Open(context.Background(), jc); err != nil {
			fatal(logger, "batch job manager failed to open", "jobs_dir", jc.Dir, "error", err)
		}
		svc.Jobs = jobMgr
		svc.AllowDBAudit = c.dbAudit
		logger.Info("batch jobs enabled", "jobs_dir", jc.Dir, "db_audit", c.dbAudit,
			"job_workers", jc.Workers, "max_queued_jobs", jc.MaxQueued,
			"job_timeout", jc.JobTimeout.String(), "recovered", jobMgr.Recovered())
	}
	// Registry pulling: the puller polls the registry's pinned version and
	// hot-swaps through the same atomic path as /v1/admin/reload, and a
	// reload forces an immediate poll instead of re-reading the local
	// source.
	pullCtx, pullCancel := context.WithCancel(context.Background())
	defer pullCancel()
	if c.registryURL != "" {
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
			URL:     c.registryURL,
			Poll:    c.registryPoll,
			Retry:   pullRetry,
			Breaker: pullBreaker,
			Apply: func(info registry.VersionInfo, raw []byte) error {
				d, err := core.Load(bytes.NewReader(raw))
				if err != nil {
					return err
				}
				if err := svc.SwapInfo(d, sem, service.ModelInfo{
					Version: info.Version, Source: "registry",
					SHA256: info.SHA256, PublishedUnixMs: info.PublishedUnixMs,
				}); err != nil {
					return err
				}
				logValueModel(logger, sem, "the registry version carries no value statistics")
				return nil
			},
			Logf:    observe.Logf(logger, slog.LevelInfo),
			Metrics: reg,
			Tracer:  tracer,
		})
		if err != nil {
			fatal(logger, "registry puller setup failed", "registry", c.registryURL, "error", err)
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

	logger.Info("listening", "addr", c.addr,
		"max_inflight", c.stack.MaxInFlight, "request_timeout", c.stack.RequestTimeout.String(),
		"max_body_bytes", c.stack.MaxBodyBytes, "pprof", c.stack.Pprof)
	err := listenAndDrain(logger, c.addr, svc.Handler(), c.drain, untilSignal)
	if jobMgr != nil {
		// Drain the executor after the listener: running jobs persist their
		// per-column checkpoint and resume on the next boot.
		jCtx, jCancel := context.WithTimeout(context.Background(), c.drain)
		if err := jobMgr.Close(jCtx); err != nil {
			logger.Error("batch job drain incomplete", "error", err)
		}
		jCancel()
	}
	if err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
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

// buildSummary is the -build-summary payload (distbuild-summary.json in CI):
// the wall clock plus the coordinator's final status, whose lease and
// shard counters let a smoke harness assert not just that the build
// finished but that reassignment and duplicate-handling actually happened.
type buildSummary struct {
	distbuild.StatusResponse
	Restored    int     `json:"restored"`
	WallSeconds float64 `json:"wall_seconds"`
	Languages   int     `json:"languages"`
	ModelBytes  int     `json:"model_bytes"`
}

// runBuildCoordinator drives one distributed build end to end: serve the
// distbuild protocol on addr behind the shared hardened stack, wait until
// every partition's shard is accepted, merge and finalize, atomically
// write the model, then drain. SIGINT/SIGTERM abort the build; accepted
// shards stay under StateDir, so rerunning the same command resumes where
// it stopped.
func runBuildCoordinator(c *config) error {
	part, err := pipeline.NewDirPartitioner(c.trainDir, pipeline.DirConfig{HasHeader: true})
	if err != nil {
		return err
	}
	logger, reg := c.stack.Logger, c.stack.Metrics
	opts := c.build.Options()
	opts.Metrics = reg
	cc := c.coord
	cc.Options, cc.Metrics, cc.Tracer, cc.Logf = opts, reg, c.stack.Tracer, observe.Logf(logger, slog.LevelInfo)
	coord, err := distbuild.NewCoordinator(part, cc)
	if err != nil {
		return err
	}
	// Finalize the build's root span no matter how the build ends, so the
	// trace lands in the flight recorder (EndTrace is idempotent).
	defer coord.EndTrace()
	// Shard uploads are large and a lease must never be shed or cut short
	// mid-build, so the coordinator has no admission flags: MaxInFlight,
	// RequestTimeout and MaxBodyBytes stay 0, which turns admission, the
	// deadline and the body cap off. It keeps recovery, request IDs,
	// metrics and access logs.
	stack := c.stack
	stack.Route = distbuild.RouteLabel
	logger.Info("build coordinator listening", "addr", c.addr,
		"partitions", coord.Partitions(), "restored", coord.Restored(),
		"lease_ttl", cc.LeaseTTL.String(), "state_dir", cc.StateDir)

	start := time.Now()
	return listenAndDrain(logger, c.addr, resilience.Stack(coord.Handler(), stack), c.drain, func(ctx context.Context) error {
		if err := coord.Wait(ctx); err != nil {
			logger.Warn("build interrupted; accepted shards persist, rerun to resume",
				"state_dir", cc.StateDir, "status", fmt.Sprintf("%+v", coord.Status()))
			return err
		}
		// The server stays up while finalizing: lingering workers still
		// polling for leases hear "done" and exit cleanly instead of
		// retrying into a wall.
		det, rep, err := coord.BuildModel(context.Background())
		if err != nil {
			return err
		}
		if err := atomicio.WriteTo(c.buildOut, 0o644, det.Save); err != nil {
			return err
		}
		if c.registryURL != "" {
			// Publish the finalized model so the serving fleet picks it up.
			// Idempotent: a rerun of a finished build re-uploads the same
			// bytes and is acknowledged as a duplicate. The publish rides the
			// build trace: the registry persists the injected traceparent,
			// and every replica's hot-swap span joins this build's timeline.
			var buf bytes.Buffer
			if err := det.Save(&buf); err != nil {
				return err
			}
			fp := pipeline.BuildFingerprint(part.Fingerprint(), opts)
			pubBreaker, pubRetry := guard("registry_publish", reg, logger, retry.Policy{MaxAttempts: 10})
			pubCtx, endPublish := observe.RecorderSpan(coord.TraceContext(), "publish_model")
			pres, err := registry.PublishModel(pubCtx, c.registryURL, buf.Bytes(), fp, "distbuild",
				registry.PublishOptions{Retry: pubRetry, Breaker: pubBreaker})
			if err != nil {
				observe.SetSpanError(pubCtx, err.Error())
				endPublish()
				return fmt.Errorf("model written to %s but registry publish failed: %w", c.buildOut, err)
			}
			endPublish()
			logger.Info("model published to registry", "registry", c.registryURL,
				"version", pres.Version, "status", pres.Status, "current", pres.Current,
				"sha256", pres.SHA256)
		}
		// Finalize the build trace now — while the server is still up — so
		// the completed timeline is visible on /debug/traces before drain.
		coord.EndTrace()
		sum := buildSummary{coord.Status(), coord.Restored(), time.Since(start).Seconds(), len(rep.Selected), rep.SelectedBytes}
		logger.Info("distributed build complete", "out", c.buildOut,
			"partitions", sum.Partitions, "restored", sum.Restored,
			"leases_granted", sum.LeasesGranted, "leases_expired", sum.LeasesExpired,
			"reassignments", sum.Reassignments, "shards_accepted", sum.ShardsAccepted,
			"shards_duplicate", sum.ShardsDuplicate, "shards_rejected", sum.ShardsRejected,
			"languages", sum.Languages, "model_bytes", sum.ModelBytes,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
		if c.buildSummary == "" {
			return nil
		}
		raw, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		return atomicio.WriteFile(c.buildSummary, raw, 0o644)
	})
}

// runBuildWorker joins a distributed build and works until the coordinator
// reports it complete. The generous retry budget is deliberate: a worker
// should ride out a coordinator restart, not die during one.
func runBuildWorker(c *config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := c.stack.Logger
	wc := c.worker
	wc.Workers, wc.Tracer, wc.Logf = c.build.Workers, c.stack.Tracer, observe.Logf(logger, slog.LevelInfo)
	wc.Breaker, wc.Retry = guard("distbuild_worker", c.stack.Metrics, logger, retry.Policy{MaxAttempts: 10})
	logger.Info("build worker starting", "coordinator", wc.Coordinator, "dir", wc.Dir, "workers", wc.Workers)
	st, err := distbuild.RunWorker(ctx, wc)
	if err != nil {
		return err
	}
	logger.Info("build worker done", "partitions_counted", st.PartitionsCounted,
		"leases_lost", st.LeasesLost, "waits", st.Waits, "breaker_waits", st.BreakerWaits)
	return nil
}

// guard builds the breaker and the retry budget that protect one outbound
// dependency, both labelled name in the metrics, and returns pol spending
// from that budget. pol's jitter is seeded from crypto/rand, so processes
// retrying against the same dependency spread out instead of backing off
// in lockstep.
func guard(name string, reg *observe.Registry, logger *slog.Logger, pol retry.Policy) (*resilience.Breaker, retry.Policy) {
	var seed [8]byte
	_, _ = rand.Read(seed[:]) // on failure the zero seed only costs the spread
	pol.Seed = binary.LittleEndian.Uint64(seed[:])
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
func runRegistryServer(c *config) error {
	logger := c.stack.Logger
	store, err := registry.Open(c.registryDir, registry.Options{
		Metrics: c.stack.Metrics,
		Logf:    observe.Logf(logger, slog.LevelInfo),
	})
	if err != nil {
		return err
	}
	cur, pinned, versions := store.List()
	logger.Info("registry open", "dir", c.registryDir, "versions", len(versions),
		"current", cur, "pinned", pinned)
	stack := c.stack
	stack.Tier = registry.Tier
	stack.Route = registry.RouteLabel
	logger.Info("registry listening", "addr", c.addr,
		"max_inflight", stack.MaxInFlight, "request_timeout", stack.RequestTimeout.String(),
		"max_body_bytes", stack.MaxBodyBytes)
	if err := listenAndDrain(logger, c.addr, resilience.Stack(registry.NewServer(store).Handler(), stack), c.drain, untilSignal); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}

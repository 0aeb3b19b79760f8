// Package pipeline implements the sharded, streaming corpus-statistics
// build of Auto-Detect: the map-reduce-style aggregation the paper runs
// over ~100M web-table columns (Section 3.4), scaled down to a single
// process with N lock-free counting workers.
//
// A build streams columns from a ColumnSource (CSV/TSV directories,
// generated corpora, or in-memory slices) through a fan-out of worker
// goroutines. Each worker folds its share of columns into a private partial
// accumulator — per-language pattern occurrence counts plus co-occurrence
// dictionaries — so the hot loop takes no locks. Partial shards are merged
// (stats.LanguageStats.Merge, sketch.CountMin.Merge) at checkpoint
// barriers and at stream end, then canonicalized so the final statistics
// are byte-for-byte reproducible regardless of worker count, scheduling,
// or checkpoint/resume boundaries. Distant-supervision columns are drawn
// by a deterministic mergeable bottom-k sample on the single-threaded
// ingestion side — a pure function of the column multiset — so the
// downstream calibration sees the same training pairs whatever the
// parallelism, and partial builds over corpus partitions
// (internal/distbuild) merge into the byte-identical sample of a
// single-process pass.
//
// Periodic checkpoints persist the merged shard, the sample, and the
// stream position inside the model-v2 integrity envelope; an interrupted
// build resumes from the last barrier and converges to the byte-identical
// model an uninterrupted build would have produced.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/observe"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Options parameterizes a pipeline build.
type Options struct {
	// Workers is the build's parallelism (default NumCPU): the counting
	// fan-out, and the per-language fold of every barrier — merging the
	// round's shards, canonicalizing, serializing checkpoints and shards,
	// and calibrating. Each language is folded by one goroutine into its
	// own slot, so the bytes of checkpoints, shards and models do not
	// depend on it. Workers=1 reproduces the legacy single-threaded Train
	// exactly.
	Workers int
	// Train carries the algorithm configuration; zero fields are defaulted
	// exactly like core.Train.
	Train core.TrainConfig
	// SampleColumns caps the bottom-k sample of columns kept for distant
	// supervision. 0 keeps every column (exact equivalence with the
	// in-memory Train path, at the cost of holding the corpus's values);
	// production builds over file-resident corpora should set a bound
	// (200k columns is plenty for 50k training pairs).
	SampleColumns int
	// CheckpointDir enables periodic checkpointing into this directory,
	// and resume-from-checkpoint when it already holds a valid shard.
	// Empty disables both.
	CheckpointDir string
	// CheckpointEvery is the column interval between checkpoint barriers
	// (default 100000).
	CheckpointEvery int
	// KeepCheckpoints leaves the final checkpoint shard on disk after a
	// successful build instead of consuming it.
	KeepCheckpoints bool
	// KeepLastCheckpoints is how many newest checkpoint shards survive
	// pruning (default 3). Keeping several is what allows resume to fall
	// back past a torn or bit-rotted newest shard.
	KeepLastCheckpoints int
	// Progress, when set, receives throughput snapshots every
	// ProgressEvery (default 2s) during counting plus one per stage
	// transition. Called from pipeline goroutines.
	Progress func(Progress)
	// ProgressEvery is the progress sampling period.
	ProgressEvery time.Duration
	// Metrics, when set, receives live build telemetry: per-stage
	// cumulative seconds, column/value totals, worker busy time and
	// checkpoint counts (see DESIGN.md "Observability" for the metric
	// names). The daemon passes its serving registry here so a scrape of
	// /metrics shows training progress next to request latencies.
	Metrics *observe.Registry
}

// Result is a completed pipeline build.
type Result struct {
	// Detector is the trained, ready-to-serve model.
	Detector *core.Detector
	// Report summarizes training like core.Train's report.
	Report *core.TrainReport
	// Columns and Values count the corpus cells folded into the model,
	// including checkpoint-restored ones.
	Columns, Values uint64
	// ResumedColumns is how many columns were restored from a checkpoint
	// rather than re-counted (0 for a fresh build).
	ResumedColumns uint64
	// CheckpointsWritten counts shards persisted during this run.
	CheckpointsWritten int
	// CorruptCheckpointsSkipped counts integrity-failed shards that resume
	// fell back past (torn writes, bit rot).
	CorruptCheckpointsSkipped int
	// FilesSkipped and ColumnsQuarantined report the error-budget spend of
	// fault-tolerant sources (zero for sources without a budget).
	FilesSkipped, ColumnsQuarantined uint64
	// Stages holds per-stage wall-clock timings in execution order.
	Stages []StageTiming
	// Elapsed is the total build time of this run.
	Elapsed time.Duration
}

const (
	defaultCheckpointEvery = 100000
	columnBatchSize        = 32
)

// resolveTrain applies the defaults Run documents: core.Train's training
// defaults, the full language space, distsup.DefaultConfig, and NumCPU
// workers. CountPartial applies the identical resolution, so a distributed
// worker and a single-process build starting from the same Options count
// under the same effective configuration.
func resolveTrain(opts Options) (tc core.TrainConfig, ds distsup.Config, langs []pattern.Language, workers int) {
	tc = opts.Train
	if tc.TargetPrecision == 0 {
		tc.TargetPrecision = 0.95
	}
	if tc.MemoryBudget == 0 {
		tc.MemoryBudget = 64 << 20
	}
	if tc.Smoothing == 0 {
		tc.Smoothing = stats.DefaultSmoothing
	}
	langs = tc.Languages
	if langs == nil {
		langs = pattern.All()
	}
	ds = tc.DistSup
	if ds.PositivePairs == 0 && ds.NegativePairs == 0 {
		ds = distsup.DefaultConfig()
	}
	workers = opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return tc, ds, langs, workers
}

// Run executes a full streaming build: count → merge → distant supervision
// → calibrate → select, and returns the trained detector.
//
// On context cancellation the build stops at a consistent column boundary,
// writes a final checkpoint when checkpointing is enabled, and returns the
// context error: re-running with the same source and options resumes and
// produces the byte-identical model of an uninterrupted build.
func Run(ctx context.Context, src ColumnSource, opts Options) (*Result, error) {
	startTime := time.Now()
	if src == nil {
		return nil, errors.New("pipeline: nil column source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tc, ds, langs, workers := resolveTrain(opts)
	ckptEvery := opts.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = defaultCheckpointEvery
	}
	progressEvery := opts.ProgressEvery
	if progressEvery <= 0 {
		progressEvery = 2 * time.Second
	}

	b := &build{
		src:       src,
		langs:     langs,
		tc:        tc,
		ds:        ds,
		workers:   workers,
		ckptDir:   opts.CheckpointDir,
		ckptEvery: ckptEvery,
		clock:     newStageClock(),
		startTime: startTime,
		progress:  opts.Progress,
	}
	b.keepLast = opts.KeepLastCheckpoints
	b.met = newPipelineMetrics(opts.Metrics)
	b.met.setWorkers(workers)
	// Fault-tolerant sources get the build context (so retry backoffs abort
	// on cancellation) and the metrics registry (so budget burn is visible
	// on /metrics while the build runs).
	if bc, ok := src.(interface{ BindContext(context.Context) }); ok {
		bc.BindContext(ctx)
	}
	if am, ok := src.(interface{ AttachMetrics(*sourceMetrics) }); ok {
		am.AttachMetrics(newSourceMetrics(opts.Metrics))
	}
	if cl, ok := src.(io.Closer); ok {
		defer cl.Close()
	}
	b.fingerprint = buildFingerprint(src.Fingerprint(), langs, tc.Smoothing, opts.SampleColumns, ds.Seed)
	b.base = make([]*stats.LanguageStats, len(langs))
	for i, l := range langs {
		b.base[i] = stats.NewLanguageStats(l, tc.Smoothing)
	}
	b.smp = newSample(opts.SampleColumns, uint64(ds.Seed))

	// Resume from the newest valid shard, falling back past torn or
	// corrupted ones.
	if b.ckptDir != "" {
		ck, corrupt, err := loadLatestCheckpoint(b.ckptDir, b.fingerprint, langs)
		if err != nil {
			return nil, err
		}
		b.corruptSkipped = len(corrupt)
		if ck != nil {
			b.base = ck.stats
			b.smp.restore(ck.entries)
			b.columns.Store(ck.columns)
			b.values.Store(ck.values)
			b.resumed = ck.columns
		}
	}

	// Throughput reporter, active for the lifetime of the build.
	if b.progress != nil {
		tick := time.NewTicker(progressEvery)
		done := make(chan struct{})
		defer func() { tick.Stop(); close(done) }()
		go func() {
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					b.report()
				}
			}
		}()
	}

	// Publish restored totals before counting so a scrape during the
	// checkpoint skip phase already shows the resumed position.
	b.met.progress(b.columns.Load(), b.values.Load())

	if err := b.count(ctx); err != nil {
		return nil, err
	}
	if b.columns.Load() == 0 {
		return nil, errors.New("pipeline: source yielded no columns")
	}

	det, report, err := finalizeStats(ctx, b.base, b.smp.finalize(), tc, ds, workers, b.setStage, b.addStage)
	if err != nil {
		return nil, err
	}
	b.met.buildDone()

	if b.ckptDir != "" && !opts.KeepCheckpoints {
		removeCheckpoints(b.ckptDir)
	}
	res := &Result{
		Detector:                  det,
		Report:                    report,
		Columns:                   b.columns.Load(),
		Values:                    b.values.Load(),
		ResumedColumns:            b.resumed,
		CheckpointsWritten:        b.checkpointsWritten(),
		CorruptCheckpointsSkipped: b.corruptSkipped,
		Stages:                    b.clock.timings(),
		Elapsed:                   time.Since(startTime),
	}
	if q, ok := src.(interface{ Quarantined() (uint64, uint64) }); ok {
		res.FilesSkipped, res.ColumnsQuarantined = q.Quarantined()
	}
	return res, nil
}

// build carries the state of one Run.
type build struct {
	src         ColumnSource
	langs       []pattern.Language
	tc          core.TrainConfig
	ds          distsup.Config
	workers     int
	ckptDir     string
	ckptEvery   int
	fingerprint string

	base []*stats.LanguageStats
	smp  *sample

	keepLast int

	columns, values atomic.Uint64
	resumed         uint64
	ckptsWritten    int
	corruptSkipped  int

	clock     *stageClock
	met       *pipelineMetrics
	startTime time.Time

	progress func(Progress)
	// progMu guards stage and ckptsWritten and serializes progress
	// delivery, so Options.Progress never runs concurrently with itself.
	progMu sync.Mutex
	stage  Stage
}

// addStage accumulates a stage duration on the clock and, when a metrics
// registry is attached, on the exported per-stage counters — so a scrape
// during a long build sees stage progress live, not only at the end.
func (b *build) addStage(s Stage, d time.Duration) {
	b.clock.add(s, d)
	b.met.stage(s, d)
}

func (b *build) setStage(s Stage) {
	b.progMu.Lock()
	b.stage = s
	b.progMu.Unlock()
	b.report()
}

func (b *build) noteCheckpoint() {
	b.progMu.Lock()
	b.ckptsWritten++
	b.progMu.Unlock()
	b.met.checkpoint()
}

func (b *build) checkpointsWritten() int {
	b.progMu.Lock()
	defer b.progMu.Unlock()
	return b.ckptsWritten
}

// report delivers one progress snapshot.
func (b *build) report() {
	if b.progress == nil {
		return
	}
	elapsed := time.Since(b.startTime)
	cols, vals := b.columns.Load(), b.values.Load()
	var cps, vps float64
	if secs := elapsed.Seconds(); secs > 0 {
		cps = float64(cols-b.resumed) / secs
		// Value throughput rates only columns counted this run; restored
		// values are excluded the same way.
		vps = cps * avgOr(vals, cols)
	}
	b.progMu.Lock()
	defer b.progMu.Unlock()
	b.progress(Progress{
		Stage: b.stage, Columns: cols, Values: vals,
		ColumnsPerSec: cps, ValuesPerSec: vps,
		Workers: b.workers, Checkpoints: b.ckptsWritten, Elapsed: elapsed,
	})
}

func avgOr(values, columns uint64) float64 {
	if columns == 0 {
		return 0
	}
	return float64(values) / float64(columns)
}

// count runs the streaming fold: skip checkpoint-covered columns, then
// repeat rounds of (fan out to workers → barrier → merge → checkpoint)
// until the source drains or the context is cancelled.
func (b *build) count(ctx context.Context) error {
	b.setStage(StageCount)

	// Re-stream past the checkpoint boundary. The source re-delivers from
	// the start; covered columns are discarded without folding (their
	// counts and reservoir effects are already in the restored shard).
	// Sources that can reposition without materializing values — database
	// sources skip whole table.column walks this way — take the fast path;
	// whatever remainder they report falls through to the discard loop.
	skip := b.resumed
	if skipper, ok := b.src.(interface {
		SkipColumns(n uint64) (uint64, error)
	}); ok && skip > 0 {
		n, err := skipper.SkipColumns(skip)
		if err != nil {
			return fmt.Errorf("pipeline: skipping to checkpoint: %w", err)
		}
		if n > skip {
			return fmt.Errorf("pipeline: source skipped %d columns, asked for %d", n, skip)
		}
		skip -= n
	}
	for skipped := uint64(0); skipped < skip; skipped++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pipeline: interrupted while skipping to checkpoint: %w", err)
		}
		if _, err := b.src.Next(); err == io.EOF {
			return fmt.Errorf("pipeline: checkpoint covers %d columns but source drained after %d; source changed since checkpoint", b.resumed, b.resumed-skip+skipped)
		} else if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}

	drained := false
	for !drained {
		roundStart := time.Now()
		batches := make(chan []*corpus.Column, b.workers*2)
		partials := make([]*stats.Builder, b.workers)
		var wg sync.WaitGroup
		for w := 0; w < b.workers; w++ {
			partials[w] = stats.NewBuilder(b.langs, b.tc.Smoothing)
			wg.Add(1)
			go func(pb *stats.Builder) {
				defer wg.Done()
				// Busy time is measured around the fold, not the channel
				// receive, so busy ÷ (count-stage seconds × workers) reads
				// directly as worker utilization.
				var busy time.Duration
				for batch := range batches {
					t := time.Now()
					for _, col := range batch {
						pb.AddColumn(col.Values)
					}
					busy += time.Since(t)
				}
				b.met.busy(busy)
			}(partials[w])
		}

		var (
			roundCols int
			batch     []*corpus.Column
			srcErr    error
			cancelled bool
		)
		for b.ckptDir == "" || roundCols < b.ckptEvery {
			if ctx.Err() != nil {
				cancelled = true
				break
			}
			col, err := b.src.Next()
			if err == io.EOF {
				drained = true
				break
			}
			if err != nil {
				srcErr = err
				break
			}
			b.smp.add(col)
			batch = append(batch, col)
			if len(batch) == columnBatchSize {
				batches <- batch
				batch = nil
			}
			roundCols++
			b.columns.Add(1)
			b.values.Add(uint64(len(col.Values)))
		}
		if len(batch) > 0 {
			batches <- batch
		}
		close(batches)
		wg.Wait()
		b.addStage(StageCount, time.Since(roundStart))

		// Barrier: fold the round's private shards into the base.
		mergeStart := time.Now()
		if err := mergeBuilders(b.base, partials, b.workers); err != nil {
			return err
		}
		b.addStage(StageMerge, time.Since(mergeStart))
		b.met.progress(b.columns.Load(), b.values.Load())

		// A context-aware source (DirSource aborts retry backoffs on
		// cancellation) reports the build's own cancellation as a read
		// error; fold that back into the cancelled path so the final
		// checkpoint is still written.
		if srcErr != nil && ctx.Err() != nil && errors.Is(srcErr, ctx.Err()) {
			cancelled = true
			srcErr = nil
		}
		if srcErr != nil {
			return fmt.Errorf("pipeline: reading source: %w", srcErr)
		}

		// Persist the barrier state: at every full round, and on
		// cancellation so the interrupted work is not lost.
		if b.ckptDir != "" && (!drained || cancelled) {
			if err := writeCheckpoint(b.ckptDir, &checkpoint{
				fingerprint: b.fingerprint,
				columns:     b.columns.Load(),
				values:      b.values.Load(),
				entries:     b.smp.entries(),
				stats:       b.base,
				workers:     b.workers,
			}, b.keepLast); err != nil {
				return err
			}
			b.noteCheckpoint()
		}
		if cancelled {
			return fmt.Errorf("pipeline: interrupted after %d columns (checkpointed: %v): %w",
				b.columns.Load(), b.ckptDir != "", ctx.Err())
		}
	}
	return nil
}

// finalizeStats runs the post-counting stages shared by Run and the
// distributed-build coordinator: canonicalize the merged statistics, draw
// distant-supervision training pairs from the sampled columns, calibrate
// per-language thresholds, and select the final ensemble. The stage hooks
// are nil-safe; Run passes its progress/metrics plumbing through them.
func finalizeStats(ctx context.Context, base []*stats.LanguageStats, sampleCols []*corpus.Column,
	tc core.TrainConfig, ds distsup.Config, workers int,
	setStage func(Stage), addStage func(Stage, time.Duration)) (*core.Detector, *core.TrainReport, error) {
	if setStage == nil {
		setStage = func(Stage) {}
	}
	if addStage == nil {
		addStage = func(Stage, time.Duration) {}
	}

	// Canonicalize the merged shard so downstream results do not depend on
	// merge interleaving.
	t0 := time.Now()
	if err := stats.CanonicalizeAll(base, workers); err != nil {
		return nil, nil, fmt.Errorf("pipeline: canonicalizing: %w", err)
	}
	addStage(StageMerge, time.Since(t0))

	setStage(StageDistsup)
	t0 = time.Now()
	sample := &corpus.Corpus{Name: "pipeline-sample", Columns: sampleCols}
	data, err := distsup.Generate(sample, ds)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: generating training data: %w", err)
	}
	addStage(StageDistsup, time.Since(t0))

	setStage(StageCalibrate)
	t0 = time.Now()
	cands, err := calibrateAll(ctx, base, data, workers, tc.TargetPrecision)
	if err != nil {
		return nil, nil, err
	}
	addStage(StageCalibrate, time.Since(t0))

	setStage(StageSelect)
	t0 = time.Now()
	det, report, err := core.BuildDetector(cands, tc.MemoryBudget, tc.Aggregation, tc.SketchRatio)
	if err != nil {
		return nil, nil, err
	}
	addStage(StageSelect, time.Since(t0))
	report.CandidateLanguages = len(base)
	report.TrainingExamples = len(data.Examples)
	report.CompatColumns = data.CompatColumns
	return det, report, nil
}

// mergeBuilders is the merge barrier of a counting round: it folds every
// worker's private shard into base, language by language on up to workers
// goroutines, in worker order within each language.
func mergeBuilders(base []*stats.LanguageStats, shards []*stats.Builder, workers int) error {
	srcs := make([][]*stats.LanguageStats, len(shards))
	for i, sh := range shards {
		srcs[i] = sh.Stats()
	}
	if err := stats.MergeAll(base, workers, srcs...); err != nil {
		return fmt.Errorf("pipeline: merging shard: %w", err)
	}
	return nil
}

// calibrateAll derives per-language thresholds in parallel; results land at
// their language's index, so the outcome is order-deterministic.
func calibrateAll(ctx context.Context, base []*stats.LanguageStats, data *distsup.Data, workers int, targetPrecision float64) ([]*core.Calibration, error) {
	cands := make([]*core.Calibration, len(base))
	err := stats.ForEachLanguage(len(base), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cal, err := core.Calibrate(base[i], data, targetPrecision)
		if err != nil {
			return fmt.Errorf("pipeline: calibrating %v: %w", base[i].Language(), err)
		}
		cands[i] = cal
		return nil
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("pipeline: interrupted during calibration: %w", ctxErr)
	}
	if err != nil {
		return nil, err
	}
	return cands, nil
}

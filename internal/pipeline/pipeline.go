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
// (stats.LanguageStats.Merge, over exact pair stores) at checkpoint
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
// Periodic checkpoints persist the build's Partial — the merged statistics,
// the sample and the stream position — as an SH/1 file, the same format a
// distributed worker uploads; an interrupted build resumes from the last
// barrier and converges to the byte-identical model an uninterrupted build
// would have produced. CK/2 checkpoints written by older builds still
// resume; nothing writes them any more.
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
	"repro/internal/semantic"
	"repro/internal/stats"
)

// Options parameterizes a pipeline build.
type Options struct {
	// Workers is the build's parallelism (default NumCPU): the counting
	// fan-out, and the per-language fold of every barrier — merging the
	// round's shards, canonicalizing, serializing checkpoints and shards,
	// and calibrating. Each language is folded by one goroutine into its
	// own slot, so the bytes of checkpoints, shards and models do not
	// depend on it.
	Workers int
	// Train carries the algorithm configuration. Zero fields take
	// core.DefaultTrainConfig's values, and a DistSup without pair counts
	// means distsup.DefaultConfig. Languages is the candidate space (nil
	// means all 144); the build counts only the first member of each of
	// its partition classes (pattern.Representatives), 50 of the 144.
	Train core.TrainConfig
	// SampleColumns caps the bottom-k sample of columns kept for distant
	// supervision. 0 keeps every column in stream order, so training pairs
	// are drawn from the whole corpus, at the cost of holding its values;
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
	// Progress, when set, receives throughput snapshots every
	// progressEvery (2s) during counting plus one per stage transition.
	// Called from pipeline goroutines.
	Progress func(Progress)
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
	// Report summarizes the candidate space, the training set and the
	// selected ensemble.
	Report *core.TrainReport
	// Semantic is the value-level model, pruned from the counted Leaf
	// statistics (semantic.FromLeaf at its defaults); nil when Leaf is not
	// among the counted languages.
	Semantic *semantic.Model
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
	// progressEvery is the throughput sampling period of Options.Progress.
	progressEvery = 2 * time.Second
)

// resolveTrain applies the defaults Options documents and NumCPU workers.
// Every entry point resolves through it, so a distributed worker and a
// single-process build starting from the same Options count under the same
// effective configuration. tc.Languages is the candidate space; langs are
// its partition-class representatives, the languages the build counts.
// Resolving langs again yields langs, so a worker handed them by
// CountParams counts what the coordinator expects.
func resolveTrain(opts Options) (tc core.TrainConfig, ds distsup.Config, langs []pattern.Language, workers int) {
	tc = opts.Train
	def := core.DefaultTrainConfig()
	if tc.TargetPrecision == 0 {
		tc.TargetPrecision = def.TargetPrecision
	}
	if tc.MemoryBudget == 0 {
		tc.MemoryBudget = def.MemoryBudget
	}
	if tc.Smoothing == 0 {
		tc.Smoothing = def.Smoothing
	}
	if tc.Languages == nil {
		tc.Languages = pattern.All()
	}
	langs = pattern.Representatives(tc.Languages)
	ds = tc.DistSup
	if ds.PositivePairs == 0 && ds.NegativePairs == 0 {
		ds = def.DistSup
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
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := startBuild(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	defer b.close()
	b.ckptDir = opts.CheckpointDir
	b.ckptEvery = opts.CheckpointEvery
	if b.ckptEvery <= 0 {
		b.ckptEvery = defaultCheckpointEvery
	}

	// Resume from the newest valid checkpoint, falling back past torn or
	// corrupted ones.
	if b.ckptDir != "" {
		if err := b.resume(); err != nil {
			return nil, err
		}
	}

	// Publish restored totals before counting so a scrape during the
	// checkpoint skip phase already shows the resumed position.
	b.met.columns.Set(float64(b.columns.Load()))
	b.met.values.Set(float64(b.values.Load()))

	if err := b.count(ctx); err != nil {
		return nil, err
	}
	if b.part.Columns == 0 {
		return nil, errors.New("pipeline: source yielded no columns")
	}
	p, err := b.part.prepare(b)
	if err != nil {
		return nil, err
	}
	det, report, err := b.train(ctx, p)
	if err != nil {
		return nil, err
	}
	var sem *semantic.Model
	for _, ls := range p.Stats {
		if ls.Language() == pattern.Leaf() {
			if sem, err = semantic.FromLeaf(ls, semantic.DefaultConfig()); err != nil {
				return nil, err
			}
		}
	}
	b.met.builds.Inc()

	if b.ckptDir != "" && !opts.KeepCheckpoints {
		removeCheckpoints(b.ckptDir)
	}
	res := &Result{
		Detector:                  det,
		Report:                    report,
		Semantic:                  sem,
		Columns:                   b.part.Columns,
		Values:                    b.part.Values,
		ResumedColumns:            b.resumed,
		CheckpointsWritten:        b.checkpointsWritten(),
		CorruptCheckpointsSkipped: b.corruptSkipped,
		Stages:                    b.clock.timings(),
		Elapsed:                   time.Since(b.startTime),
	}
	if q, ok := src.(interface{ Quarantined() (uint64, uint64) }); ok {
		res.FilesSkipped, res.ColumnsQuarantined = q.Quarantined()
	}
	return res, nil
}

// build carries the state of one Run or CountPartial.
type build struct {
	src       ColumnSource
	langs     []pattern.Language
	tc        core.TrainConfig
	ds        distsup.Config
	workers   int
	ckptDir   string
	ckptEvery int

	// part is the counted state the build checkpoints and returns: the
	// fingerprint, the merged statistics (nil until a fresh build's first
	// barrier), the sample, and Columns and Values as of the last barrier.
	part *Partial

	// columns and values are the live totals progress reports read.
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
	// stopProgress ends the throughput reporter, if one runs.
	stopProgress func()
}

// newBuild resolves opts into a build that has no source yet: enough to
// run the post-counting stages over statistics counted elsewhere.
func newBuild(opts Options) *build {
	tc, ds, langs, workers := resolveTrain(opts)
	return &build{
		langs: langs, tc: tc, ds: ds, workers: workers,
		clock: newStageClock(), met: newPipelineMetrics(nil), startTime: time.Now(),
	}
}

// startBuild is the prologue Run and CountPartial share: resolve opts,
// bind src to the build's context and metrics, and start the throughput
// reporter. Checkpointing stays off; Run turns it on. The caller must
// close the build.
func startBuild(ctx context.Context, src ColumnSource, opts Options) (*build, error) {
	if src == nil {
		return nil, errors.New("pipeline: nil column source")
	}
	b := newBuild(opts)
	b.src = src
	b.progress = opts.Progress
	b.met = newPipelineMetrics(opts.Metrics)
	b.met.workers.Set(float64(b.workers))
	// Fault-tolerant sources get the build context (so retry backoffs abort
	// on cancellation) and the metrics registry (so budget burn is visible
	// on /metrics while the build runs).
	if bc, ok := src.(interface{ BindContext(context.Context) }); ok {
		bc.BindContext(ctx)
	}
	if am, ok := src.(interface{ AttachMetrics(*sourceMetrics) }); ok {
		am.AttachMetrics(newSourceMetrics(opts.Metrics))
	}
	b.part = &Partial{
		Fingerprint: buildFingerprint(src.Fingerprint(), b.langs, b.tc.Smoothing, opts.SampleColumns, b.ds.Seed),
		smp:         newSample(opts.SampleColumns, uint64(b.ds.Seed)),
		workers:     b.workers,
	}

	if b.progress != nil {
		tick := time.NewTicker(progressEvery)
		done := make(chan struct{})
		b.stopProgress = func() { tick.Stop(); close(done) }
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
	return b, nil
}

// close stops the throughput reporter and closes the source.
func (b *build) close() {
	if b.stopProgress != nil {
		b.stopProgress()
	}
	if cl, ok := b.src.(io.Closer); ok {
		cl.Close()
	}
}

// addStage accumulates a stage duration on the clock and on the exported
// per-stage counters, so a scrape during a long build sees stage progress
// live, not only at the end.
func (b *build) addStage(s Stage, d time.Duration) {
	b.clock.add(s, d)
	b.met.stageSecs.With(string(s)).Add(d.Seconds())
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
	b.met.checkpoints.Inc()
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
// until the source drains or the context is cancelled. Without a
// checkpoint directory the whole stream is one round.
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
				b.met.busySecs.Add(busy.Seconds())
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
			b.part.smp.add(col)
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

		// Barrier: fold the round's private shards into the merged
		// statistics. A fresh build's first barrier adopts worker 0's shard
		// as them: merging it into empty statistics would copy it whole,
		// IDs and all, and hold both copies until the round ends.
		mergeStart := time.Now()
		shards := partials
		if b.part.stats == nil {
			b.part.stats, shards = partials[0].Stats(), partials[1:]
		}
		if err := mergeBuilders(b.part.stats, shards, b.workers); err != nil {
			return err
		}
		b.addStage(StageMerge, time.Since(mergeStart))
		b.part.Columns, b.part.Values = b.columns.Load(), b.values.Load()
		b.met.columns.Set(float64(b.part.Columns))
		b.met.values.Set(float64(b.part.Values))

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
			if err := writeCheckpoint(b.ckptDir, b.part); err != nil {
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

// train calibrates every candidate of p, selects the ensemble and fills in
// the report.
func (b *build) train(ctx context.Context, p *core.Pipeline) (*core.Detector, *core.TrainReport, error) {
	b.setStage(StageCalibrate)
	t0 := time.Now()
	cands, err := p.Calibrate(ctx, b.tc.TargetPrecision, b.workers)
	if err != nil {
		return nil, nil, err
	}
	b.addStage(StageCalibrate, time.Since(t0))

	b.setStage(StageSelect)
	t0 = time.Now()
	det, report, err := core.BuildDetector(cands, b.tc.MemoryBudget, b.tc.SketchRatio)
	if err != nil {
		return nil, nil, err
	}
	b.addStage(StageSelect, time.Since(t0))
	report.CandidateLanguages = len(b.tc.Languages)
	report.CountedLanguages = len(p.Languages)
	report.TrainingExamples = len(p.Data.Examples)
	report.CompatColumns = p.Data.CompatColumns
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

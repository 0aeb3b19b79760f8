package pipeline

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/envelope"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Shard files exchanged by the distributed build (internal/distbuild) carry
// a Partial inside the same integrity envelope as checkpoints, under their
// own magic: a torn upload or a bit flip in transit is rejected at decode,
// never merged.
var shardMagic = []byte("AUTODETECT-SH/1\n")

// Partial is the result of counting one corpus partition without
// finalizing: the per-language statistics, the partition's share of the
// distant-supervision sample, and the fingerprint of (partition source,
// training configuration) it was counted under. Partials from the
// partitions of one corpus merge into exactly the state a single-process
// build holds after its counting stage.
type Partial struct {
	// Fingerprint is buildFingerprint(source, config) — the coordinator
	// recomputes it per partition and refuses shards that disagree.
	Fingerprint string
	// Columns and Values count the corpus cells folded into this partial.
	Columns, Values uint64

	stats []*stats.LanguageStats
	smp   *sample
	// workers is the per-language parallelism of Merge and EncodePartial:
	// the counting build's Options.Workers, or one per CPU for a decoded
	// shard.
	workers int
}

// CountPartial streams src to exhaustion through Run's counting fan-out,
// but stops at the merge barrier: no canonicalization, no distant
// supervision, no calibration. Options is resolved exactly like Run's, so a
// worker counting partition i of a corpus and a single-process build over
// the whole corpus agree on every configuration default. Checkpoint
// options are ignored — a distributed worker's unit of durability is the
// uploaded shard, and a lost worker's partition is recounted from scratch
// under its new lease. An empty source yields a valid zero-column partial.
func CountPartial(ctx context.Context, src ColumnSource, opts Options) (*Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := startBuild(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.count(ctx); err != nil {
		return nil, err
	}
	return b.partial(), nil
}

// Merge folds another partition's partial into the receiver. Statistics and
// bounded samples merge in any order; unbounded samples (SampleColumns=0)
// concatenate, so callers must merge partitions in index order to
// reproduce the single-stream column sequence. Fingerprints are NOT
// compared here — partitions of one build legitimately differ — the caller
// owns shard/build identity checks.
func (p *Partial) Merge(other *Partial) error {
	if other == nil {
		return errors.New("pipeline: cannot merge nil partial")
	}
	if err := stats.MergeAll(p.stats, p.workers, other.stats); err != nil {
		return fmt.Errorf("pipeline: merging partial: %w", err)
	}
	p.smp.merge(other.smp)
	p.Columns += other.Columns
	p.Values += other.Values
	return nil
}

// Prepare runs the stages between counting and calibration over the
// (fully merged) partial: it canonicalizes the statistics in place and
// draws the distant-supervision training pairs. The returned pipeline
// shares the partial's statistics, so parameter sweeps can recalibrate
// and reselect from it without another corpus pass.
func (p *Partial) Prepare(opts Options) (*core.Pipeline, error) {
	return p.prepare(newBuild(opts))
}

// prepare is Prepare on b's stage clock.
func (p *Partial) prepare(b *build) (*core.Pipeline, error) {
	if p.Columns == 0 {
		return nil, errors.New("pipeline: no columns counted")
	}
	t0 := time.Now()
	if err := stats.CanonicalizeAll(p.stats, b.workers); err != nil {
		return nil, fmt.Errorf("pipeline: canonicalizing: %w", err)
	}
	b.addStage(StageMerge, time.Since(t0))

	b.setStage(StageDistsup)
	t0 = time.Now()
	data, err := distsup.Generate(&corpus.Corpus{Name: "pipeline-sample", Columns: p.smp.finalize()}, b.ds)
	if err != nil {
		return nil, fmt.Errorf("pipeline: generating training data: %w", err)
	}
	b.addStage(StageDistsup, time.Since(t0))
	langs := make([]pattern.Language, len(p.stats))
	for i, ls := range p.stats {
		langs[i] = ls.Language()
	}
	return &core.Pipeline{Languages: langs, Stats: p.stats, Data: data}, nil
}

// Finalize prepares the partial and trains the detector: the distributed
// coordinator's last step, identical to what Run does after its own
// counting stage.
func (p *Partial) Finalize(ctx context.Context, opts Options) (*core.Detector, *core.TrainReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := newBuild(opts)
	pipe, err := p.prepare(b)
	if err != nil {
		return nil, nil, err
	}
	return b.train(ctx, pipe)
}

// SampleSize reports how many distant-supervision columns the partial holds.
func (p *Partial) SampleSize() int { return p.smp.size() }

// EncodePartial writes the partial as an integrity-enveloped shard: magic,
// length header, payload, CRC64 trailer. The payload embeds the sample's
// cap and seed so DecodePartial reconstructs a sample that keeps merging
// correctly.
func EncodePartial(w io.Writer, p *Partial) error {
	le := binary.LittleEndian
	buf := envelope.AppendString(nil, p.Fingerprint)
	buf = le.AppendUint64(buf, p.Columns)
	buf = le.AppendUint64(buf, p.Values)
	buf = le.AppendUint64(buf, uint64(int64(p.smp.cap)))
	buf = le.AppendUint64(buf, p.smp.seed)
	buf = appendSampleEntries(buf, p.smp.entries())
	buf, err := appendLanguageStats(buf, p.stats, p.workers)
	if err != nil {
		return err
	}
	return envelope.Write(w, shardMagic, buf)
}

// DecodePartial reads and integrity-checks one shard. Torn or bit-flipped
// shards fail with envelope.ErrIntegrity wrapped in the returned error.
func DecodePartial(rd io.Reader) (*Partial, error) {
	payload, err := envelope.Read(rd, shardMagic, maxCheckpointPayload)
	if err != nil {
		return nil, fmt.Errorf("pipeline: shard: %w", err)
	}
	d := envelope.NewDecoder(payload)
	p := &Partial{Fingerprint: d.String()}
	p.Columns = d.U64()
	p.Values = d.U64()
	capv := d.U64()
	p.smp = newSample(int(int64(capv)), d.U64())
	p.smp.restore(readSampleEntries(d))
	if p.stats, err = readLanguageStats(d, "shard"); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("pipeline: shard: %w", err)
	}
	return p, nil
}

// CountParams are the resolved configuration knobs that shape the counting
// stage and the build fingerprint — exactly the values a distributed-build
// coordinator must hand its workers for their partials to merge into the
// coordinator's expected model. Languages travel by ID (an index into
// pattern.All()), so distributed builds require language sets drawn from
// pattern.All(); they are the counted representatives (50 for the full
// candidate space), which resolve to themselves on the worker. Pair counts,
// calibration targets, and memory budgets are deliberately absent because
// they only matter at finalization, which runs on the coordinator under its
// own full Options.
type CountParams struct {
	LanguageIDs   []int   `json:"language_ids"`
	Smoothing     float64 `json:"smoothing"`
	SampleColumns int     `json:"sample_columns"`
	DistSupSeed   int64   `json:"distsup_seed"`
}

// ResolveCountParams applies the same defaulting as Run and CountPartial
// and extracts the count-relevant knobs.
func ResolveCountParams(opts Options) CountParams {
	tc, ds, langs, _ := resolveTrain(opts)
	cp := CountParams{
		LanguageIDs:   make([]int, len(langs)),
		Smoothing:     tc.Smoothing,
		SampleColumns: opts.SampleColumns,
		DistSupSeed:   ds.Seed,
	}
	for i, l := range langs {
		cp.LanguageIDs[i] = l.ID
	}
	return cp
}

// Options reconstructs counting Options from the wire-level knobs. The
// guarantee — verified by TestCountParamsRoundTrip — is that for any opts,
// BuildFingerprint(fp, ResolveCountParams(opts).Options(w)) equals
// BuildFingerprint(fp, opts): a worker counting under the reconstruction
// produces a partial the coordinator accepts and merges byte-identically.
func (cp CountParams) Options(workers int) Options {
	langs := make([]pattern.Language, len(cp.LanguageIDs))
	for i, id := range cp.LanguageIDs {
		langs[i] = pattern.ByID(id)
	}
	ds := distsup.DefaultConfig()
	ds.Seed = cp.DistSupSeed
	return Options{
		Workers: workers,
		Train: core.TrainConfig{
			Languages: langs,
			Smoothing: cp.Smoothing,
			DistSup:   ds,
		},
		SampleColumns: cp.SampleColumns,
	}
}
